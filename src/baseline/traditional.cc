#include "baseline/traditional.hh"

namespace dscalar {
namespace baseline {

using interconnect::MsgKind;

TraditionalSystem::TraditionalSystem(
    const prog::Program &program, const core::SimConfig &config,
    mem::PageTable ptable,
    std::shared_ptr<const func::InstTrace> trace)
    : SingleCoreSystem(program, config, std::move(trace), config.core,
                       "---- TraditionalSystem ----"),
      ptable_(std::move(ptable)), bus_(config.bus),
      onChipMem_(config.mem), offChipMem_(config.mem)
{
}

Cycle
TraditionalSystem::offChipLineRead(Addr line, Cycle now)
{
    // Two serialized bus crossings per operand: the request out, the
    // response back, with the memory access in between (Figure 3b).
    unsigned line_size = config_.core.dcache.lineSize;
    Cycle req_arrive = bus_.send(MsgKind::Request, line_size, now);
    Cycle mem_done = offChipMem_.request(line, req_arrive);
    return bus_.send(MsgKind::Response, line_size, mem_done);
}

ooo::FillResult
TraditionalSystem::startLineFetch(Addr line, Cycle now)
{
    if (onChip(line))
        return {onChipMem_.request(line, now), false};
    ++offChipReads_;
    return {offChipLineRead(line, now), false};
}

void
TraditionalSystem::onUnclaimedCanonicalMiss(Addr line, Cycle now)
{
    // The canonical fill needs the line even though the issue-time
    // access was served by a stale copy; perform the (non-blocking)
    // fetch traffic.
    if (onChip(line)) {
        onChipMem_.request(line, now);
    } else {
        ++offChipReads_;
        offChipLineRead(line, now);
    }
}

void
TraditionalSystem::writeBack(Addr line, Cycle now)
{
    if (onChip(line)) {
        onChipMem_.request(line, now);
    } else {
        ++offChipWrites_;
        Cycle arrive =
            bus_.send(MsgKind::WriteBack, config_.core.dcache.lineSize,
                      now);
        offChipMem_.request(line, arrive);
    }
}

void
TraditionalSystem::storeMiss(Addr line, Cycle now)
{
    if (onChip(line)) {
        onChipMem_.request(line, now);
    } else {
        ++offChipWrites_;
        Cycle arrive = bus_.send(MsgKind::Write, 8, now);
        offChipMem_.request(line, arrive);
    }
}

Cycle
TraditionalSystem::fetchInstLine(Addr line, Cycle now)
{
    if (onChip(line))
        return onChipMem_.request(line, now);
    ++offChipReads_;
    return offChipLineRead(line, now);
}

void
TraditionalSystem::addSamplerColumns(obs::Sampler &sampler)
{
    SingleCoreSystem::addSamplerColumns(sampler);
    sampler.addColumn("bus_messages", obs::Sampler::Mode::Delta,
                      [this] { return bus_.totalMessages(); });
    sampler.addColumn("bus_busy_cycles", obs::Sampler::Mode::Delta,
                      [this] { return bus_.busyCycles(); });
    sampler.addColumn("offchip_reads", obs::Sampler::Mode::Delta,
                      [this] { return offChipReads_; });
    sampler.addColumn("offchip_writes", obs::Sampler::Mode::Delta,
                      [this] { return offChipWrites_; });
}

void
TraditionalSystem::addSystemStats(stats::Snapshot &snap,
                                  stats::Snapshot::GroupEntry &sys) const
{
    snap.addCounter(sys, "bus_messages", bus_.totalMessages(),
                    "global-bus transactions");
    snap.addCounter(sys, "bus_bytes", bus_.totalBytes(),
                    "global-bus payload+header bytes");
    snap.addCounter(sys, "bus_busy_cycles", bus_.busyCycles(),
                    "cycles the bus was occupied");
    snap.addCounter(sys, "offchip_reads", offChipReads_,
                    "off-chip line reads");
    snap.addCounter(sys, "offchip_writes", offChipWrites_,
                    "off-chip writes and write-backs");
}

} // namespace baseline
} // namespace dscalar
