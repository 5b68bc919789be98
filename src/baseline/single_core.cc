#include "baseline/single_core.hh"

namespace dscalar {
namespace baseline {

SingleCoreSystem::SingleCoreSystem(
    const prog::Program &program, const core::SimConfig &config,
    std::shared_ptr<const func::InstTrace> trace,
    const ooo::CoreParams &params, const char *stats_title)
    : TimingSystem(program, config, std::move(trace)),
      statsTitle_(stats_title), core_(params, stream_, *this)
{
    addCore(core_);
}

void
SingleCoreSystem::attachTraceSink(TraceSink *sink)
{
    core_.setTraceSink(sink, 0);
}

void
SingleCoreSystem::addSamplerColumns(obs::Sampler &sampler)
{
    sampler.addColumn("commit_rate", obs::Sampler::Mode::Delta, [this] {
        return static_cast<std::uint64_t>(core_.committedSeq());
    });
    sampler.addColumn("dcub_depth", obs::Sampler::Mode::Level, [this] {
        return static_cast<std::uint64_t>(core_.dcubOccupancy());
    });
}

void
SingleCoreSystem::buildStats(stats::Snapshot &snap,
                             const core::RunResult &r) const
{
    stats::Snapshot::GroupEntry &sys = snap.addGroup("system", statsTitle_);
    addRunStats(snap, sys, r);
    addSystemStats(snap, sys);

    const ooo::CoreStats &cs = core_.coreStats();
    stats::Snapshot::GroupEntry &g = snap.addGroup("core", "core:");
    snap.addCounter(g, "committed", cs.committed,
                    "instructions committed");
    snap.addCounter(g, "loads", cs.loads, "loads committed");
    snap.addCounter(g, "stores", cs.stores, "stores committed");
    snap.addCounter(g, "load_issue_misses", cs.loadIssueMisses,
                    "issue-time L1D misses (DCUB fetches)");
    snap.addCounter(g, "canonical_load_misses", cs.canonicalLoadMisses,
                    "commit-time (canonical) load misses");
    snap.addCounter(g, "false_hits", cs.falseHits,
                    "issue hit but canonical miss");
    snap.addCounter(g, "false_misses", cs.falseMisses,
                    "issue miss but canonical hit");
    snap.addCounter(g, "store_commit_misses", cs.storeCommitMisses,
                    "stores missing at commit");
    snap.addCounter(g, "dirty_writebacks", cs.dirtyWriteBacks,
                    "dirty victims evicted");
    snap.addCounter(g, "icache_misses", cs.icacheMisses,
                    "instruction-line fills");
}

} // namespace baseline
} // namespace dscalar
