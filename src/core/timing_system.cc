#include "core/timing_system.hh"

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
    LoopEnd end = runLoop();
    // Stamp the loop's end before building the snapshot so the
    // profile group's total_us brackets exactly the instrumented
    // loop (its phases already sum to this by the lap pattern).
    if (prof_)
        profEndNs_ = prof_->elapsedNs();

    RunResult result;
    result.cycles = end.cycles;
    result.loopTicks = end.loopTicks;
    result.error = std::move(end.error);
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
