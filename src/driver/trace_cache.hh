/**
 * @file
 * Shared capture-once store of dynamic instruction traces (and built
 * programs) for experiment sweeps.
 *
 * A fig8-style sweep runs the same workload at dozens of
 * (system × configuration) points; the SPSD property means every
 * point consumes the identical dynamic stream, so executing it
 * functionally once and replaying it everywhere changes no reported
 * number — only wall-clock. The cache is safe for concurrent use by
 * runMany's and dsserve's worker threads: the first thread to ask
 * for a (workload, scale, maxInsts) key captures while later askers
 * block on the same future, so each key is captured exactly once per
 * cache no matter the job count.
 */

#ifndef DSCALAR_DRIVER_TRACE_CACHE_HH
#define DSCALAR_DRIVER_TRACE_CACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.hh"
#include "func/inst_trace.hh"
#include "prog/program.hh"

namespace dscalar {
namespace driver {

/** Thread-safe get-or-capture cache of programs and their traces. */
class TraceCache
{
  public:
    /**
     * The captured trace for registered workload @p workload built
     * at @p scale and executed for @p max_insts instructions
     * (0 = completion). Blocks until the capture (by this or
     * another thread) finishes.
     */
    std::shared_ptr<const func::InstTrace>
    acquire(const std::string &workload, unsigned scale,
            InstSeq max_insts);

    /** As above; @p hit reports whether the key was already cached
     *  (i.e. this call was served without a new capture). */
    std::shared_ptr<const func::InstTrace>
    acquire(const std::string &workload, unsigned scale,
            InstSeq max_insts, bool &hit);

    /** The built program for (workload, scale), assembled once. */
    std::shared_ptr<const prog::Program>
    program(const std::string &workload, unsigned scale);

    /** Functional captures actually executed. */
    std::uint64_t captures() const;
    /** acquire() calls served without a new capture. */
    std::uint64_t hits() const;
    /** Approximate bytes held across all cached traces. */
    std::size_t memoryBytes() const;

    /** Drop every cached program and trace. */
    void clear();

  private:
    struct TraceKey
    {
        std::string workload;
        unsigned scale;
        InstSeq maxInsts;
        auto operator<=>(const TraceKey &) const = default;
    };
    struct ProgramKey
    {
        std::string workload;
        unsigned scale;
        auto operator<=>(const ProgramKey &) const = default;
    };

    mutable std::mutex mutex_;
    std::map<TraceKey,
             std::shared_future<std::shared_ptr<const func::InstTrace>>>
        traces_;
    std::map<ProgramKey,
             std::shared_future<std::shared_ptr<const prog::Program>>>
        programs_;
    std::uint64_t captures_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace driver
} // namespace dscalar

#endif // DSCALAR_DRIVER_TRACE_CACHE_HH
