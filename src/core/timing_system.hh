/**
 * @file
 * The shell every timing system shares.
 *
 * The paper compares "an identical processor" backed by different
 * memory systems (Section 4.3), and under SPSD every node of every
 * system consumes the same dynamic stream (Section 4.2). A
 * TimingSystem is that common part: the stream and the program
 * output it carries, the trace-sink fan-out, the sampler, the
 * wall-clock profiler, the run-once guard, assembly of the RunResult
 * and its stat snapshot, and the one run loop. The loop ticks the
 * cores a system registers, cycle n for every core before cycle n+1
 * for any (Section 4.2), so a single-core system is the N = 1 case
 * with no medium between cores. A concrete system adds only its
 * memory behind the core(s), its sampler columns, its stats groups
 * and, when it has a medium, the run-loop hooks that drive it.
 */

#ifndef DSCALAR_CORE_TIMING_SYSTEM_HH
#define DSCALAR_CORE_TIMING_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "core/sim_config.hh"
#include "func/inst_trace.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "ooo/core.hh"
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
     *  or until the run proves hopeless: an unreachable owner or a
     *  deadlock (RunResult::error). A system runs once. */
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
     * wall time to four phases (delivery, recovery, tick,
     * bookkeeping) via @p prof's lap() accumulators,
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

    /** Deadlock diagnostics at cycle @p now; a run that ends in an
     *  error carries their first lines. */
    virtual void watchdogDump(std::ostream &, Cycle) const {}

  protected:
    /** A null @p trace streams @p program, captured a chunk at a
     *  time; a non-null one replays it instead (byte-identical
     *  results, see driver::TraceCache). */
    TimingSystem(const prog::Program &program, const SimConfig &config,
                 std::shared_ptr<const func::InstTrace> trace);

    /** Register @p core for run() to tick, in registration order;
     *  its index is its slot in deliverDue's wake span. */
    void addCore(ooo::OoOCore &core) { cores_.push_back(&core); }

    // Run-loop hooks for a medium between the cores; the defaults
    // describe a system without one.

    /** Apply every delivery due at @p now, setting wake[i] = now for
     *  each core i that received one. */
    virtual void deliverDue(Cycle, std::span<Cycle>) {}

    /** @return the failure that ends the run (an owner unreachable
     *  by re-request recovery at @p now), or nullptr. */
    virtual const std::string *pollRecovery(Cycle) { return nullptr; }

    /** Earliest cycle a delivery lands or a re-request fires, or
     *  cycleMax; the two hooks above run only from that cycle on. */
    virtual Cycle nextExternalEvent() const { return cycleMax; }

    /** No delivery in flight. */
    virtual bool quiescent() const { return true; }

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
    /** The run loop: sets @p r's cycles, loopTicks and any error. */
    void loop(RunResult &r);

    /** @p text, then the first lines of watchdogDump. */
    std::string withDumpExcerpt(std::string text, Cycle now) const;

    std::vector<ooo::OoOCore *> cores_;
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
