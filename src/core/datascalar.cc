#include "core/datascalar.hh"

#include <algorithm>

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
      faults_(config.fault)
{
    // driver::runOne refuses an invalid config as an error reply;
    // one that reaches the constructor is a caller's bug.
    std::string invalid = validate(config_, true);
    panic_if(!invalid.empty(), "invalid DataScalar config: %s",
             invalid.c_str());
    bus_.setFaultModel(&faults_);
    ring_.setFaultModel(&faults_);
    fatal_if(ptable_.numNodes() != config_.numNodes,
             "page table built for %u nodes, system has %u",
             ptable_.numNodes(), config_.numNodes);
    for (NodeId id = 0; id < config_.numNodes; ++id) {
        nodes_.push_back(std::make_unique<DataScalarNode>(
            id, config_, ptable_, stream_, *this));
        addCore(nodes_.back()->core());
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

void
DataScalarSystem::deliverDue(Cycle now, std::span<Cycle> wake)
{
    while (!deliveries_.empty() && deliveries_.top().at <= now) {
        Delivery d = deliveries_.top();
        deliveries_.pop();
        auto deliver = [&](DataScalarNode &node) {
            if (d.kind == interconnect::MsgKind::Rerequest)
                node.deliverRerequest(d.line, now);
            else
                node.deliverBroadcast(d.line, now);
            wake[node.id()] = now;
        };
        if (d.targeted) {
            deliver(*nodes_[d.target]);
        } else {
            for (auto &node : nodes_)
                if (node->id() != d.src)
                    deliver(*node);
        }
    }
}

const std::string *
DataScalarSystem::pollRecovery(Cycle now)
{
    for (auto &node : nodes_)
        if (!node->checkRecovery(now))
            return &node->failure();
    return nullptr;
}

Cycle
DataScalarSystem::nextExternalEvent() const
{
    Cycle soonest = deliveries_.empty() ? cycleMax : deliveries_.top().at;
    for (const auto &node : nodes_)
        soonest = std::min(soonest, node->nextRecoveryCycle());
    return soonest;
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
