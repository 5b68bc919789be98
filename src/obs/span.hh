/**
 * @file
 * Wall-clock request spans and phase accumulators (the serving-grade
 * telemetry layer, PR 10).
 *
 * A SpanRecorder measures where *wall time* goes, never simulated
 * time, and never perturbs a run: attaching one changes no cycle
 * count, stat, trace event, or sampler row (locked by
 * tests/test_identity.cc). It offers two complementary shapes:
 *
 *  - a **span tree** (begin/end or SpanScope RAII) for the coarse
 *    request phases — program build, trace capture / disk load /
 *    cache hit, the timing run, snapshot render, reply write — that
 *    driver::runOne and serve::Server thread through every request
 *    and serialize into reply headers as `span_<name>_us` keys;
 *  - **phase accumulators** driven by the lap() pattern for hot run
 *    loops: one steady-clock read per phase transition attributes
 *    the whole loop contiguously (delivery vs. tick vs. barrier
 *    vs. oracle-extend), so the per-phase totals sum to the loop's
 *    wall time by construction. Systems expose them as the `profile`
 *    stats group (core::TimingSystem::setProfiler).
 *
 * A disabled recorder (or a null pointer, the run-loop convention)
 * is free: every operation returns immediately and allocates
 * nothing, proven by an operator-new-counting test. Names must be
 * string literals (stored as const char*), which also keeps the
 * enabled hot path allocation-free.
 *
 * The recorder is single-writer: the serving path hands it between
 * threads (connection thread -> pool worker -> connection thread)
 * but never touches it concurrently.
 */

#ifndef DSCALAR_OBS_SPAN_HH
#define DSCALAR_OBS_SPAN_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace dscalar {

namespace stats { class Snapshot; }

namespace obs {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /** One recorded (possibly still open) span. */
    struct Span
    {
        const char *name;       ///< string literal supplied by begin()
        unsigned depth;         ///< nesting depth (0 = top level)
        std::uint64_t startNs;  ///< offset from the recorder epoch
        std::uint64_t durNs;    ///< 0 until end() closes the span
        bool open;
    };

    explicit SpanRecorder(bool enabled = true)
        : enabled_(enabled), epoch_(Clock::now()), lastLap_(epoch_)
    {
    }

    bool enabled() const { return enabled_; }

    // --- span tree ------------------------------------------------

    /** Open a span; @p name must outlive the recorder (use a string
     *  literal). @return a handle for end(); 0 when disabled. */
    std::size_t begin(const char *name);

    /** Close the span @p handle opened. No-op when disabled. */
    void end(std::size_t handle);

    /** Rename an open span — the trace-acquisition path only learns
     *  whether it hit the cache, loaded from disk, or captured after
     *  the fact. */
    void setName(std::size_t handle, const char *name);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of the first *closed* span named @p name, in
     *  microseconds; 0 when absent. */
    std::uint64_t spanUs(const char *name) const;

    /** Nanoseconds from the recorder epoch to now (the request's
     *  running wall clock). */
    std::uint64_t elapsedNs() const;
    std::uint64_t elapsedUs() const { return elapsedNs() / 1000; }

    /** Emit one `span_<name>_us = N` kv line per closed top-level
     *  span, in record order (the reply-header serialization). */
    void emitHeaderKeys(std::ostream &os) const;

    // --- phase accumulators (lap pattern) -------------------------

    /** Register a phase before the loop (allocates; not hot-path).
     *  @return its index for lap(). 0 when disabled. */
    unsigned addPhase(const char *name);

    /** Restart the lap clock without attributing the time since the
     *  last lap to any phase (call at loop entry). */
    void lapStart();

    /** Attribute all wall time since the previous lap()/lapStart()
     *  to @p phase and restart the lap clock. One clock read. */
    void
    lap(unsigned phase)
    {
        if (!enabled_)
            return;
        Clock::time_point now = Clock::now();
        phaseNs_[phase] += std::chrono::duration_cast<
                               std::chrono::nanoseconds>(now - lastLap_)
                               .count();
        lastLap_ = now;
    }

    std::size_t phaseCount() const { return phaseNames_.size(); }
    const char *phaseName(unsigned i) const { return phaseNames_[i]; }
    std::uint64_t phaseNs(unsigned i) const { return phaseNs_[i]; }
    std::uint64_t phaseUs(unsigned i) const { return phaseNs_[i] / 1000; }

    /** Sum of all phase accumulators, in nanoseconds. */
    std::uint64_t phaseTotalNs() const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    Clock::time_point lastLap_;
    std::vector<Span> spans_;
    std::vector<std::size_t> openStack_;
    std::vector<const char *> phaseNames_;
    std::vector<std::uint64_t> phaseNs_;
};

/**
 * Append the `profile` stats group to @p snap: one `phase_<name>_us`
 * counter per registered phase of @p rec plus `total_us`, the
 * independently measured wall time of the instrumented loop
 * (@p totalNs, stamped by the system around the loop — the lap
 * pattern guarantees the phases sum to it up to microsecond
 * rounding). Shared by all three system types so benchdiff and the
 * dsrun --profile summary see one schema.
 */
void addProfileGroup(stats::Snapshot &snap, const SpanRecorder &rec,
                     std::uint64_t totalNs);

/** RAII span over a *nullable* recorder — the call sites' convention
 *  is "null pointer = telemetry off". */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const char *name)
        : rec_(rec), handle_(rec ? rec->begin(name) : 0)
    {
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->end(handle_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Rename the underlying span (see SpanRecorder::setName). */
    void
    setName(const char *name)
    {
        if (rec_)
            rec_->setName(handle_, name);
    }

  private:
    SpanRecorder *rec_;
    std::size_t handle_;
};

} // namespace obs
} // namespace dscalar

#endif // DSCALAR_OBS_SPAN_HH
