/**
 * @file
 * The single-processor comparison systems' common part: the shell
 * plus one out-of-order core and the core's stats and timeline
 * columns. The shell's run loop ticks that one core; with no medium
 * between cores, the system overrides none of the loop's hooks.
 * PerfectSystem and TraditionalSystem differ only in the memory
 * behind the core.
 */

#ifndef DSCALAR_BASELINE_SINGLE_CORE_HH
#define DSCALAR_BASELINE_SINGLE_CORE_HH

#include <memory>

#include "core/timing_system.hh"
#include "ooo/core.hh"
#include "ooo/mem_backend.hh"

namespace dscalar {
namespace baseline {

/** One core over a memory the derived class supplies as its
 *  ooo::MemBackend. */
class SingleCoreSystem : public core::TimingSystem,
                         private ooo::MemBackend
{
  public:
    const ooo::OoOCore &core() const { return core_; }

  protected:
    /** @p stats_title heads the "system" stats group. */
    SingleCoreSystem(const prog::Program &program,
                     const core::SimConfig &config,
                     std::shared_ptr<const func::InstTrace> trace,
                     const ooo::CoreParams &params,
                     const char *stats_title);

    /** System-specific counters for the "system" group, after the
     *  run counters. */
    virtual void addSystemStats(stats::Snapshot &,
                                stats::Snapshot::GroupEntry &) const {}

    /** Commit rate and DCUB depth; a derived class appends its own
     *  columns after these. */
    void addSamplerColumns(obs::Sampler &sampler) override;

  private:
    void attachTraceSink(TraceSink *sink) final;
    void buildStats(stats::Snapshot &snap,
                    const core::RunResult &r) const final;

    /** The core reads this while constructing, before the derived
     *  backend exists; single-core memories never stall fetches. */
    bool fetchesMayStall() const final { return false; }

    const char *statsTitle_;
    ooo::OoOCore core_;
};

} // namespace baseline
} // namespace dscalar

#endif // DSCALAR_BASELINE_SINGLE_CORE_HH
