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
    if (dataScalar && cfg.bshrHardCapacity && cfg.rerequestTimeout == 0)
        return "bshr_hard needs re-request recovery "
               "(rerequest_timeout > 0)";
    return "";
}

} // namespace core
} // namespace dscalar
