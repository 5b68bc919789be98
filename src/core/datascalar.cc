#include "core/datascalar.hh"

#include <algorithm>
#include <iostream>

#include "common/logging.hh"

namespace dscalar {
namespace core {

DataScalarSystem::DataScalarSystem(
    const prog::Program &program, const SimConfig &config,
    mem::PageTable ptable,
    std::shared_ptr<const func::InstTrace> trace)
    : TimingSystem(program, config, std::move(trace)),
      ptable_(std::move(ptable)),
      bus_(config.bus), ring_(config.numNodes, config.ring),
      faults_(config.fault),
      recoveryActive_(config.rerequestTimeout > 0)
{
    fatal_if(config_.numNodes < 1, "need at least one node");
    fatal_if(config_.bshrHardCapacity && !recoveryActive_,
             "bshrHardCapacity drops broadcasts at a full bank and "
             "needs re-request recovery (set rerequestTimeout > 0)");
    bus_.setFaultModel(&faults_);
    ring_.setFaultModel(&faults_);
    fatal_if(ptable_.numNodes() != config_.numNodes,
             "page table built for %u nodes, system has %u",
             ptable_.numNodes(), config_.numNodes);
    for (NodeId id = 0; id < config_.numNodes; ++id) {
        nodes_.push_back(std::make_unique<DataScalarNode>(
            id, config_, ptable_, stream_, *this));
    }
    if (config_.memCapacityPages != 0) {
        for (NodeId id = 0; id < config_.numNodes; ++id) {
            fatal_if(localPageCount(id) > config_.memCapacityPages,
                     "node %u needs %zu pages of local memory but "
                     "has capacity for %zu (reduce replication or "
                     "add nodes)",
                     id, localPageCount(id),
                     config_.memCapacityPages);
        }
    }
}

void
DataScalarSystem::broadcast(NodeId src, Addr line,
                            interconnect::MsgKind kind, Cycle ready)
{
    // A single-node "system" has nobody to push operands to.
    if (config_.numNodes == 1)
        return;
    unsigned line_size = config_.core.dcache.lineSize;
    if (config_.interconnect == InterconnectKind::Ring) {
        interconnect::RingBroadcastResult res =
            ring_.broadcast(kind, line_size, src, line, ready);
        for (const interconnect::RingDelivery &d : res.deliveries) {
            deliveries_.push(Delivery{d.at, deliveryOrder_++, src,
                                      line, kind, true, d.node});
        }
        return;
    }
    interconnect::BusTransmitResult res =
        bus_.transmit(kind, line_size, src, line, ready);
    for (unsigned i = 0; i < res.numDeliveries; ++i) {
        deliveries_.push(
            Delivery{res.at[i], deliveryOrder_++, src, line, kind});
    }
}

std::size_t
DataScalarSystem::localPageCount(NodeId id) const
{
    std::size_t n = ptable_.ownedPageCount(id);
    n += ptable_.replicatedPageCount();
    return n;
}

TimingSystem::LoopEnd
DataScalarSystem::runLoop()
{
    Cycle now = 0;
    Cycle last_progress_cycle = 0;
    InstSeq last_min_commit = 0;
    std::uint64_t loop_ticks = 0;
    const bool skipping = config_.eventDriven;
    // Per-node wake times: the earliest cycle each core's tick could
    // change any state (nextEventCycle contract). A core whose wake
    // lies in the future is provably idle, so its ticks are no-ops
    // and are elided entirely; an arriving delivery re-arms the
    // recipient for the current cycle. Single-stepping mode pins
    // every wake at "now" so every core ticks every cycle.
    std::vector<Cycle> wake(nodes_.size(), 0);

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

    while (true) {
        ++loop_ticks;
        while (!deliveries_.empty() && deliveries_.top().at <= now) {
            Delivery d = deliveries_.top();
            deliveries_.pop();
            bool rereq = d.kind == interconnect::MsgKind::Rerequest;
            if (d.targeted) {
                if (rereq)
                    nodes_[d.target]->deliverRerequest(d.line, now);
                else
                    nodes_[d.target]->deliverBroadcast(d.line, now);
                wake[d.target] = now;
            } else {
                for (auto &node : nodes_) {
                    if (node->id() != d.src) {
                        if (rereq)
                            node->deliverRerequest(d.line, now);
                        else
                            node->deliverBroadcast(d.line, now);
                        wake[node->id()] = now;
                    }
                }
            }
        }

        if (prof_)
            prof_->lap(ph_delivery);

        if (recoveryActive_) {
            for (auto &node : nodes_) {
                if (!node->checkRecovery(now)) {
                    // An unreachable owner: the run cannot finish,
                    // and says so as a value.
                    if (prof_)
                        prof_->lap(ph_recovery);
                    return {now + 1, loop_ticks, node->failure()};
                }
            }
        }
        if (prof_)
            prof_->lap(ph_recovery);

        bool all_done = true;
        InstSeq min_commit = ~static_cast<InstSeq>(0);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            ooo::OoOCore &core = nodes_[i]->core();
            if (!skipping || wake[i] <= now) {
                core.tick(now);
                wake[i] = skipping ? core.nextEventCycle(now)
                                   : now + 1;
            }
            all_done = all_done && core.done();
            min_commit = std::min(min_commit, core.committedSeq());
        }
        if (prof_)
            prof_->lap(ph_tick);

        if (all_done && deliveries_.empty()) {
            // Final cycle's state is settled; flush pending samples.
            if (sampler_)
                sampler_->advance(now);
            if (prof_)
                prof_->lap(ph_book);
            break;
        }

        stream_.trim(min_commit);

        if (min_commit > last_min_commit) {
            last_min_commit = min_commit;
            last_progress_cycle = now;
        } else if (now - last_progress_cycle > config_.watchdogCycles) {
            watchdogFire(now, min_commit, all_done);
        }

        Cycle next = now + 1;
        if (skipping) {
            // Fast-forward to the earliest cycle anything can happen:
            // a node making internal progress or a broadcast landing.
            // Intermediate ticks are no-ops, so skipping them changes
            // no simulated cycle count or statistic.
            Cycle soonest = nextDeliveryCycle();
            for (Cycle w : wake)
                soonest = std::min(soonest, w);
            if (recoveryActive_) {
                // Re-requests must fire at the same cycle in both
                // run-loop modes.
                for (const auto &node : nodes_)
                    soonest =
                        std::min(soonest, node->nextRecoveryCycle());
            }
            // Never skip past the cycle where the watchdog would
            // fire: a deadlocked run must panic at the same cycle
            // the single-stepping loop panics at.
            Cycle deadline =
                last_progress_cycle + config_.watchdogCycles + 1;
            next = std::max(now + 1, std::min(soonest, deadline));
        }
        // Cycles [now, next-1] are final (skipped cycles are no-ops),
        // so any nominal sample cycle in that window observes exactly
        // the current state — identical in both run-loop modes.
        if (sampler_)
            sampler_->advance(next - 1);
        now = next;
        if (prof_)
            prof_->lap(ph_book);
    }

    return {now + 1, loop_ticks, {}};
}

void
DataScalarSystem::attachTraceSink(TraceSink *sink)
{
    for (auto &node : nodes_)
        node->setTraceSink(sink);
    faults_.setTraceSink(sink);
}

void
DataScalarSystem::addSamplerColumns(obs::Sampler &sampler)
{
    for (const auto &node : nodes_) {
        const DataScalarNode *n = node.get();
        std::string prefix = "node" + std::to_string(n->id());
        sampler.addColumn(prefix + ".commit_rate",
                          obs::Sampler::Mode::Delta, [n] {
                              return static_cast<std::uint64_t>(
                                  n->core().committedSeq());
                          });
        sampler.addColumn(prefix + ".bshr_occupancy",
                          obs::Sampler::Mode::Level, [n] {
                              return static_cast<std::uint64_t>(
                                  n->bshr().occupancy());
                          });
        sampler.addColumn(prefix + ".dcub_depth",
                          obs::Sampler::Mode::Level, [n] {
                              return static_cast<std::uint64_t>(
                                  n->core().dcubOccupancy());
                          });
    }
    sampler.addColumn("bus_messages", obs::Sampler::Mode::Delta,
                      [this] { return bus_.totalMessages(); });
    sampler.addColumn("bus_busy_cycles", obs::Sampler::Mode::Delta,
                      [this] { return bus_.busyCycles(); });
    if (config_.interconnect == InterconnectKind::Ring) {
        sampler.addColumn("ring_link_busy_cycles",
                          obs::Sampler::Mode::Delta,
                          [this] { return ring_.linkBusyCycles(); });
    }
    // Datathread lead: the node with the highest committed sequence
    // this window (lowest id wins ties), i.e.\ the paper's notion of
    // which node currently leads the datathread.
    sampler.addColumn("lead_node", obs::Sampler::Mode::Level, [this] {
        NodeId lead = 0;
        InstSeq best = 0;
        for (const auto &node : nodes_) {
            InstSeq seq = node->core().committedSeq();
            if (seq > best) {
                best = seq;
                lead = node->id();
            }
        }
        return static_cast<std::uint64_t>(lead);
    });
}

void
DataScalarSystem::watchdogFire(Cycle now, InstSeq min_commit,
                               bool all_done) const
{
    watchdogDump(std::cerr, now);
    panic("no commit progress for %llu cycles "
          "(min committed %llu @ cycle %llu; %zu deliveries "
          "pending, next at %llu; all_done=%d) -- "
          "protocol deadlock?",
          (unsigned long long)config_.watchdogCycles,
          (unsigned long long)min_commit, (unsigned long long)now,
          deliveries_.size(),
          deliveries_.empty() ? 0ULL
                              : (unsigned long long)deliveries_.top().at,
          all_done ? 1 : 0);
}

void
DataScalarSystem::watchdogDump(std::ostream &os, Cycle now) const
{
    os << "==== watchdog diagnostics @ cycle " << now << " ====\n";
    for (const auto &node : nodes_)
        node->watchdogDump(os, now);
    os << "in-flight messages: " << deliveries_.size() << '\n';
    auto copy = deliveries_;
    while (!copy.empty()) {
        const Delivery &d = copy.top();
        os << "  " << interconnect::msgKindName(d.kind) << " 0x"
           << std::hex << d.line << std::dec << " from node " << d.src
           << ", delivers @" << d.at;
        if (d.targeted)
            os << " to node " << d.target;
        os << '\n';
        copy.pop();
    }
}

void
DataScalarSystem::buildStats(stats::Snapshot &snap,
                             const RunResult &r) const
{
    stats::Snapshot::GroupEntry &sys = snap.addGroup(
        "system", "---- DataScalarSystem (" +
                      std::to_string(config_.numNodes) +
                      " nodes) ----");
    addRunStats(snap, sys, r, "committed per node (SPSD)");
    snap.addCounter(sys, "bus_messages", bus_.totalMessages(),
                    "global-bus transactions");
    snap.addCounter(sys, "bus_bytes", bus_.totalBytes(),
                    "global-bus payload+header bytes");
    snap.addCounter(sys, "bus_busy_cycles", bus_.busyCycles(),
                    "cycles the bus was occupied");
    if (config_.interconnect == InterconnectKind::Ring) {
        snap.addCounter(sys, "ring_messages", ring_.totalMessages(),
                        "ring broadcasts");
        snap.addCounter(sys, "ring_link_busy_cycles",
                        ring_.linkBusyCycles(),
                        "summed link occupancy");
    }
    if (faults_.enabled()) {
        const interconnect::FaultStats &fs = faults_.faultStats();
        snap.addCounter(sys, "fault_decisions", fs.decisions,
                        "transmissions considered");
        snap.addCounter(sys, "fault_drops", fs.drops,
                        "transmissions lost");
        snap.addCounter(sys, "fault_duplicates", fs.duplicates,
                        "transmissions duplicated");
        snap.addCounter(sys, "fault_delays", fs.delays,
                        "deliveries jittered");
        snap.addCounter(sys, "fault_delay_cycles", fs.delayCycles,
                        "summed injected jitter");
    }
    for (const auto &node : nodes_)
        node->buildStats(snap);
}

bool
DataScalarSystem::protocolDrained() const
{
    if (!deliveries_.empty())
        return false;
    for (const auto &node : nodes_)
        if (!node->bshr().drained())
            return false;
    return true;
}

} // namespace core
} // namespace dscalar
