#include "core/sim_config.hh"

namespace dscalar {
namespace core {

std::string
validate(const SimConfig &cfg, bool dataScalar)
{
    if (cfg.numNodes < 1 || cfg.numNodes > kMaxNodes)
        return "nodes " + std::to_string(cfg.numNodes) + " outside 1.." +
               std::to_string(kMaxNodes);
    if (cfg.bshrCapacity == 0)
        return "bshr_capacity must be positive";
    const mem::CacheParams &d = cfg.core.dcache;
    if (std::string e = d.validate(); !e.empty())
        return "dcache_bytes " + std::to_string(d.sizeBytes) +
               " / dcache_assoc " + std::to_string(d.assoc) + ": " + e;
    if (std::string e = cfg.core.icache.validate(); !e.empty())
        return "icache: " + e;
    // A delivery jittered past the watchdog window reads as a deadlock
    // and aborts the run. A ring draws a fresh delay at every hop, so
    // one broadcast's jitter is up to (nodes - 1) delays; half the
    // window is left for transit, queueing behind a delayed message
    // and the time since the last commit.
    const Cycle hops =
        cfg.interconnect == InterconnectKind::Ring && cfg.numNodes > 1
            ? cfg.numNodes - 1 : 1;
    const Cycle limit = cfg.watchdogCycles / 2 / hops;
    if (cfg.fault.maxDelay > limit)
        return "fault_max_delay " + std::to_string(cfg.fault.maxDelay) +
               " over " + std::to_string(hops) +
               " hop(s) can exceed half the watchdog window (max " +
               std::to_string(limit) + ")";
    if (dataScalar && cfg.bshrHardCapacity && cfg.rerequestTimeout == 0)
        return "bshr_hard needs re-request recovery "
               "(rerequest_timeout > 0)";
    return "";
}

} // namespace core
} // namespace dscalar
