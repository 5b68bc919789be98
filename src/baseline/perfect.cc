#include "baseline/perfect.hh"

#include "common/logging.hh"

namespace dscalar {
namespace baseline {

PerfectSystem::PerfectSystem(
    const prog::Program &program, const core::SimConfig &config,
    std::shared_ptr<const func::InstTrace> trace)
    : SingleCoreSystem(program, config, std::move(trace),
                       [&config] {
                           ooo::CoreParams p = config.core;
                           p.perfectData = true;
                           return p;
                       }(),
                       "---- PerfectSystem ----"),
      localMem_(config.mem)
{
}

ooo::FillResult
PerfectSystem::startLineFetch(Addr line, Cycle now)
{
    (void)line;
    (void)now;
    panic("perfect data cache should never fetch a data line");
}

void
PerfectSystem::onUnclaimedCanonicalMiss(Addr, Cycle)
{
    panic("perfect data cache has no canonical misses");
}

void
PerfectSystem::writeBack(Addr, Cycle)
{
    panic("perfect data cache has no write-backs");
}

void
PerfectSystem::storeMiss(Addr, Cycle)
{
    panic("perfect data cache has no store misses");
}

Cycle
PerfectSystem::fetchInstLine(Addr line, Cycle now)
{
    return localMem_.request(line, now);
}

} // namespace baseline
} // namespace dscalar
