#include "core/timing_system.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace dscalar {
namespace core {

TimingSystem::TimingSystem(const prog::Program &program,
                           const SimConfig &config,
                           std::shared_ptr<const func::InstTrace> trace)
    : config_(config),
      stream_(trace ? ooo::OracleStream(std::move(trace),
                                        config.maxInsts)
                    : ooo::OracleStream(program, config.maxInsts))
{
}

RunResult
TimingSystem::run()
{
    panic_if(ran_, "timing system run() called twice");
    ran_ = true;
    if (prof_) {
        profStartNs_ = prof_->elapsedNs();
        prof_->lapStart();
    }
    RunResult result;
    loop(result);
    // Stamp the loop's end before building the snapshot so the
    // profile group's total_us brackets exactly the instrumented
    // loop (its phases already sum to this by the lap pattern).
    if (prof_)
        profEndNs_ = prof_->elapsedNs();

    result.instructions = stream_.endSeq();
    result.ipc = result.cycles
                     ? static_cast<double>(result.instructions) /
                           static_cast<double>(result.cycles)
                     : 0.0;
    lastResult_ = result;
    result.stats = snapshotStats();
    lastResult_.stats = result.stats;
    return result;
}

void
TimingSystem::loop(RunResult &r)
{
    const bool skipping = config_.eventDriven;
    // Per-core wake times: the earliest cycle a core's tick could
    // change any state (nextEventCycle), so earlier ticks are elided;
    // a delivery re-arms its recipient for the current cycle.
    // Single-stepping wakes every core every cycle.
    std::vector<Cycle> wake(cores_.size(), 0);

    // Wall-clock phase attribution (setProfiler): the lap pattern
    // reads the clock once per phase transition, so the four phases
    // partition the loop's wall time exactly.
    unsigned ph_delivery = 0, ph_recovery = 0, ph_tick = 0, ph_book = 0;
    if (prof_) {
        ph_delivery = prof_->addPhase("delivery");
        ph_recovery = prof_->addPhase("recovery");
        ph_tick = prof_->addPhase("tick");
        ph_book = prof_->addPhase("bookkeeping");
    }

    Cycle now = 0;
    Cycle last_progress = 0;
    InstSeq last_min_commit = 0;
    // The medium's hooks run only on cycles its next event is due.
    Cycle external = 0;
    while (true) {
        ++r.loopTicks;
        r.cycles = now + 1;
        if (external <= now)
            deliverDue(now, wake);
        if (prof_)
            prof_->lap(ph_delivery);

        const std::string *failure =
            external <= now ? pollRecovery(now) : nullptr;
        if (prof_)
            prof_->lap(ph_recovery);
        if (failure) {
            r.error = withDumpExcerpt(*failure, now);
            return;
        }

        bool all_done = true;
        InstSeq min_commit = ~static_cast<InstSeq>(0);
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            ooo::OoOCore &core = *cores_[i];
            if (wake[i] <= now) {
                core.tick(now);
                wake[i] = skipping ? core.nextEventCycle(now) : now + 1;
            }
            all_done = all_done && core.done();
            min_commit = std::min(min_commit, core.committedSeq());
        }
        if (prof_)
            prof_->lap(ph_tick);

        external = nextExternalEvent();
        if (all_done && quiescent()) {
            // Final cycle's state is settled; flush pending samples.
            if (sampler_)
                sampler_->advance(now);
            if (prof_)
                prof_->lap(ph_book);
            return;
        }

        if (min_commit > last_min_commit) {
            last_min_commit = min_commit;
            last_progress = now;
            stream_.trim(min_commit);
        } else if (now - last_progress > config_.watchdogCycles) {
            r.error = withDumpExcerpt(
                csprintf("watchdog: no commit progress for %llu "
                         "cycles (min committed %llu @ cycle %llu) "
                         "-- deadlock",
                         (unsigned long long)config_.watchdogCycles,
                         (unsigned long long)min_commit,
                         (unsigned long long)now),
                now);
            r.deadlock = true;
            if (prof_)
                prof_->lap(ph_book);
            return;
        }

        // Fast-forward to the earliest cycle a core, a delivery or a
        // re-request can act (now + 1 when single-stepping); skipped
        // ticks are no-ops. Never past the watchdog's cycle, so a
        // deadlock ends at the same cycle in both modes.
        Cycle next =
            std::min(external, last_progress + config_.watchdogCycles + 1);
        for (Cycle w : wake)
            next = std::min(next, w);
        next = std::max(now + 1, next);
        // Cycles [now, next-1] are final (skipped cycles are no-ops),
        // so any nominal sample cycle in that window observes exactly
        // the current state — identical in both run-loop modes.
        if (sampler_)
            sampler_->advance(next - 1);
        now = next;
        if (prof_)
            prof_->lap(ph_book);
    }
}

std::string
TimingSystem::withDumpExcerpt(std::string text, Cycle now) const
{
    // Enough for the heads of a few nodes; a dsserve error reply
    // carries it, so the dump of a large system stays out.
    constexpr std::size_t kDumpExcerptLines = 40;
    std::ostringstream os;
    watchdogDump(os, now);
    std::istringstream dump(os.str());
    std::size_t lines = 0;
    for (std::string line; std::getline(dump, line); ++lines)
        if (lines < kDumpExcerptLines)
            text += '\n' + line;
    if (lines > kDumpExcerptLines)
        text += csprintf("\n... %zu more lines",
                         lines - kDumpExcerptLines);
    return text;
}

void
TimingSystem::setTraceSink(TraceSink *sink)
{
    tee_.clear();
    addTraceSink(sink);
}

void
TimingSystem::addTraceSink(TraceSink *sink)
{
    tee_.add(sink);
    attachTraceSink(traceSink());
}

void
TimingSystem::setSampler(obs::Sampler *sampler)
{
    sampler_ = sampler;
    if (sampler)
        addSamplerColumns(*sampler);
}

void
TimingSystem::addRunStats(stats::Snapshot &snap,
                          stats::Snapshot::GroupEntry &sys,
                          const RunResult &r,
                          const char *instructions_desc)
{
    snap.addCounter(sys, "cycles", r.cycles, "simulated cycles");
    snap.addCounter(sys, "instructions", r.instructions,
                    instructions_desc);
    snap.addScalar(sys, "ipc", r.ipc, "instructions per cycle");
}

std::shared_ptr<const stats::Snapshot>
TimingSystem::snapshotStats() const
{
    auto snap = std::make_shared<stats::Snapshot>();
    buildStats(*snap, lastResult_);
    if (prof_)
        obs::addProfileGroup(*snap, *prof_,
                             profEndNs_ - profStartNs_);
    return snap;
}

void
TimingSystem::dumpStats(std::ostream &os) const
{
    snapshotStats()->dump(os);
}

} // namespace core
} // namespace dscalar
