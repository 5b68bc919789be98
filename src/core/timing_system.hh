/**
 * @file
 * The shell every timing system shares.
 *
 * The paper compares "an identical processor" backed by different
 * memory systems (Section 4.3), and under SPSD every node of every
 * system consumes the same dynamic stream (Section 4.2). A
 * TimingSystem is that common part: the stream and the program
 * output it carries, the trace-sink fan-out, the sampler, the
 * wall-clock profiler, the run-once guard, and assembly of the
 * RunResult and its stat snapshot. A concrete system adds only its
 * memory behind the core(s), its run loop, its sampler columns and
 * its stats groups.
 */

#ifndef DSCALAR_CORE_TIMING_SYSTEM_HH
#define DSCALAR_CORE_TIMING_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "common/trace.hh"
#include "core/sim_config.hh"
#include "func/inst_trace.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "ooo/oracle_stream.hh"
#include "prog/program.hh"
#include "stats/snapshot.hh"

namespace dscalar {
namespace core {

/** Base of the Perfect, Traditional and DataScalar systems. */
class TimingSystem
{
  public:
    virtual ~TimingSystem() = default;
    TimingSystem(const TimingSystem &) = delete;
    TimingSystem &operator=(const TimingSystem &) = delete;

    /** Run to completion (or the configured instruction budget),
     *  or until the run proves hopeless (RunResult::error). A system
     *  runs once. */
    RunResult run();

    /** Program output (Print* syscalls) of the executed prefix. */
    const std::string &output() const { return stream_.output(); }

    /** Emit trace events to exactly @p sink, detaching any sinks
     *  attached earlier; nullptr disables tracing. Use addTraceSink
     *  to fan out instead. */
    void setTraceSink(TraceSink *sink);

    /** Attach @p sink IN ADDITION to any already attached (text log,
     *  Perfetto exporter, and flight recorder can coexist). */
    void addTraceSink(TraceSink *sink);

    /**
     * Register the system's timeline columns with @p sampler and
     * advance it from the run loop; nullptr detaches. Sampling only
     * reads state — cycle counts and the retirement stream are
     * unchanged (locked by tests/test_identity.cc).
     */
    void setSampler(obs::Sampler *sampler);

    /**
     * Attach a wall-clock phase profiler; nullptr (the default)
     * costs nothing on the run loop. The run loop attributes its
     * wall time to named phases via @p prof's lap() accumulators,
     * and snapshotStats() appends them as the `profile` group
     * (`phase_<name>_us` plus an independently measured
     * `total_us`). Wall-clock only: simulated results are
     * byte-identical with or without a profiler (locked by
     * tests/test_identity.cc).
     */
    void setProfiler(obs::SpanRecorder *prof) { prof_ = prof; }

    /** Write a gem5-style stats dump (rendered from the snapshot). */
    void dumpStats(std::ostream &os) const;

    /** Build the stat snapshot; dumpStats and the JSON export render
     *  from this. */
    std::shared_ptr<const stats::Snapshot> snapshotStats() const;

  protected:
    /** A null @p trace streams @p program, captured a chunk at a
     *  time; a non-null one replays it instead (byte-identical
     *  results, see driver::TraceCache). */
    TimingSystem(const prog::Program &program, const SimConfig &config,
                 std::shared_ptr<const func::InstTrace> trace);

    /** What a run loop hands back to run(). */
    struct LoopEnd
    {
        Cycle cycles = 0;           ///< RunResult::cycles
        std::uint64_t loopTicks = 0; ///< RunResult::loopTicks
        std::string error;          ///< RunResult::error
    };

    /** The system's run loop. Profiler phases registered inside it
     *  are timed from loop entry (run() has called lapStart()). */
    virtual LoopEnd runLoop() = 0;

    /** Point every event source at @p sink (nullptr = tracing off). */
    virtual void attachTraceSink(TraceSink *sink) = 0;

    /** Register the system's timeline columns with @p sampler. */
    virtual void addSamplerColumns(obs::Sampler &sampler) = 0;

    /** Append the system's groups for the run @p r to @p snap (the
     *  shell appends the profile group after them). */
    virtual void buildStats(stats::Snapshot &snap,
                            const RunResult &r) const = 0;

    /** Append cycles/instructions/ipc of @p r to group @p sys. */
    static void addRunStats(stats::Snapshot &snap,
                            stats::Snapshot::GroupEntry &sys,
                            const RunResult &r,
                            const char *instructions_desc =
                                "instructions committed");

    /** The effective sink: the fan-out tee, or nullptr when nothing
     *  is attached. */
    TraceSink *
    traceSink()
    {
        return tee_.empty() ? nullptr : &tee_;
    }

    SimConfig config_;
    ooo::OracleStream stream_;
    obs::Sampler *sampler_ = nullptr;
    obs::SpanRecorder *prof_ = nullptr;

  private:
    /** Owned fan-out for attached trace sinks (empty = tracing off). */
    TeeTraceSink tee_;
    bool ran_ = false;
    RunResult lastResult_;
    /** Recorder-epoch stamps bracketing the run loop (profile group's
     *  total_us; phases must sum to it, docs/OBSERVABILITY.md). */
    std::uint64_t profStartNs_ = 0;
    std::uint64_t profEndNs_ = 0;
};

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_TIMING_SYSTEM_HH
