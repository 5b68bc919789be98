#include "core/datascalar.hh"

#include <algorithm>
#include <iostream>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/parallel_tick.hh"

namespace dscalar {
namespace core {

/**
 * Per-run state of the conservative-window parallel loop.
 *
 * During the parallel phase of a window each node runs on a worker
 * thread and may only touch its own state; everything it would have
 * pushed into shared state — interconnect sends and trace events —
 * is buffered here per node, stamped with (cycle, phase, emission
 * seq). The barrier then replays all buffers sorted by
 * (cycle, phase, node, seq), which is exactly the order the serial
 * loop interleaves them in: per executed cycle, every node's
 * recovery scan in node order, then every node's tick in node order,
 * and within one node's visit, program order.
 */
struct DataScalarSystem::ParallelWindow
{
    enum : std::uint8_t { PhaseRecovery = 0, PhaseTick = 1 };

    struct Item
    {
        Cycle cycle = 0;        ///< node-local cycle of the call
        std::uint8_t phase = PhaseTick;
        NodeId node = 0;
        std::uint64_t seq = 0;  ///< per-node emission order
        bool isSend = false;
        ProtocolEvent event;    ///< valid when !isSend
        Addr line = invalidAddr;
        interconnect::MsgKind kind = interconnect::MsgKind::Broadcast;
        Cycle ready = 0;
    };

    /** One node's window-local execution state; doubles as the trace
     *  sink the node points at during the parallel phase. */
    struct NodeState final : public TraceSink
    {
        Cycle now = 0;
        std::uint8_t phase = PhaseTick;
        std::uint64_t seq = 0;
        std::vector<Item> items;
        /** Earliest cycle this core's tick can change state (the
         *  serial loop's wake[] slot). */
        Cycle wake = 0;
        Cycle doneCycle = 0;
        bool doneSeen = false;

        void
        event(const ProtocolEvent &ev) override
        {
            Item it;
            it.cycle = now;
            it.phase = phase;
            it.node = ev.node;
            it.seq = seq++;
            it.event = ev;
            items.push_back(it);
        }
    };

    explicit ParallelWindow(std::size_t num_nodes) : nodes(num_nodes)
    {
    }

    std::vector<NodeState> nodes;
};

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
    if (pwin_) {
        // Parallel phase: nodes only ever broadcast as themselves,
        // so buffering by src is race-free. The barrier replays the
        // buffers through broadcastNow() in the serial loop's order.
        ParallelWindow::NodeState &st = pwin_->nodes[src];
        ParallelWindow::Item it;
        it.cycle = st.now;
        it.phase = st.phase;
        it.node = src;
        it.seq = st.seq++;
        it.isSend = true;
        it.line = line;
        it.kind = kind;
        it.ready = ready;
        st.items.push_back(it);
        return;
    }
    broadcastNow(src, line, kind, ready);
}

void
DataScalarSystem::broadcastNow(NodeId src, Addr line,
                               interconnect::MsgKind kind, Cycle ready)
{
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
    unsigned threads =
        resolveTickThreads(config_.tickThreads, config_.numNodes);
    if (threads > 1 && config_.numNodes > 1)
        return runParallel(threads);
    return runSerial();
}

TimingSystem::LoopEnd
DataScalarSystem::runSerial()
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
            for (auto &node : nodes_)
                node->checkRecovery(now);
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

    return {now + 1, loop_ticks};
}

TimingSystem::LoopEnd
DataScalarSystem::runParallel(unsigned threads)
{
    // Lookahead: any send made at cycle c lands at >= c + min_lat,
    // so nodes ticking independently over [W, W + min_lat) cannot
    // miss a message from this window. Fatal when zero.
    const Cycle min_lat = minCrossNodeLatency(config_);
    const bool skipping = config_.eventDriven;
    const std::size_t n = nodes_.size();

    // Wall-clock phase attribution (setProfiler), lap pattern as in
    // runSerial; "setup" absorbs window/pool construction and
    // "barrier" the merge-replay, the two costs the serial loop does
    // not have (docs/PERF.md).
    unsigned ph_setup = 0, ph_delivery = 0, ph_oracle = 0, ph_tick = 0,
             ph_barrier = 0, ph_book = 0;
    if (prof_) {
        ph_setup = prof_->addPhase("setup");
        ph_delivery = prof_->addPhase("delivery");
        ph_oracle = prof_->addPhase("oracle_extend");
        ph_tick = prof_->addPhase("tick");
        ph_barrier = prof_->addPhase("barrier");
        ph_book = prof_->addPhase("bookkeeping");
    }

    ParallelWindow win(n);
    common::ThreadPool pool(threads);
    if (prof_)
        prof_->lap(ph_setup);

    Cycle window_start = 0;
    Cycle last_progress_cycle = 0;
    InstSeq last_min_commit = 0;
    std::uint64_t loop_ticks = 0; ///< windows executed
    std::vector<std::size_t> active;
    active.reserve(n);

    // The sink nodes use outside the parallel phase (serial delivery
    // processing and barrier replay go straight to the tee).
    TraceSink *direct = traceSink();

    while (true) {
        ++loop_ticks;
        const Cycle W = window_start;

        // ---- Window start (main thread, direct effects) ----------
        // Deliveries due at W, handled exactly like the serial loop:
        // fan-out order is heap-order x node-order (not sorted by
        // node), and an owner's deliverRerequest() transmits its
        // answer immediately — both reasons this stage must not run
        // under the buffered-merge discipline.
        while (!deliveries_.empty() && deliveries_.top().at <= W) {
            Delivery d = deliveries_.top();
            deliveries_.pop();
            bool rereq = d.kind == interconnect::MsgKind::Rerequest;
            if (d.targeted) {
                if (rereq)
                    nodes_[d.target]->deliverRerequest(d.line, W);
                else
                    nodes_[d.target]->deliverBroadcast(d.line, W);
                win.nodes[d.target].wake = W;
            } else {
                for (auto &node : nodes_) {
                    if (node->id() != d.src) {
                        if (rereq)
                            node->deliverRerequest(d.line, W);
                        else
                            node->deliverBroadcast(d.line, W);
                        win.nodes[node->id()].wake = W;
                    }
                }
            }
        }
        if (prof_)
            prof_->lap(ph_delivery);

        // All cores were already done and the last delivery has just
        // been consumed: the serial loop breaks at this very cycle.
        {
            bool done_at_start = true;
            for (const auto &node : nodes_)
                done_at_start =
                    done_at_start && node->core().done();
            if (done_at_start && deliveries_.empty()) {
                Cycle final_cycle = W;
                for (const auto &st : win.nodes)
                    if (st.doneSeen)
                        final_cycle =
                            std::max(final_cycle, st.doneCycle);
                if (sampler_)
                    sampler_->advance(final_cycle);
                if (prof_)
                    prof_->lap(ph_book);
                return {final_cycle + 1, loop_ticks};
            }
        }

        // ---- Window end ------------------------------------------
        // Capped by the lookahead, by the next in-flight delivery
        // (sends from *earlier* windows may land mid-lookahead), by
        // the next nominal sample cycle (so the partition of sampler
        // rows into advance() calls — which Delta columns observe —
        // matches the serial loop's), and by the watchdog deadline.
        Cycle deadline =
            last_progress_cycle + config_.watchdogCycles + 1;
        Cycle window_end = W + min_lat;
        window_end = std::min(window_end, nextDeliveryCycle());
        if (sampler_)
            window_end =
                std::min(window_end, sampler_->nextSampleCycle() + 1);
        window_end = std::min(window_end, deadline + 1);
        window_end = std::max(window_end, W + 1);
        const Cycle E = window_end;

        // Pre-extend the shared instruction stream past every probe
        // this window can make (at most fetchWidth per tick per
        // node), so worker threads only ever hit its read-only hot
        // path. Once the stream has ended, further probes are
        // read-only by construction.
        {
            InstSeq max_fetch = 0;
            for (const auto &node : nodes_)
                max_fetch =
                    std::max(max_fetch, node->core().fetchSeq());
            stream_.available(max_fetch +
                              (E - W) * config_.core.fetchWidth);
        }
        if (prof_)
            prof_->lap(ph_oracle);

        // ---- Parallel phase --------------------------------------
        // Only nodes that can act inside [W, E) need running — the
        // serial skip loop elides exactly the same ticks. A lone
        // active node (the common stall-dominated shape: one leader
        // making progress) runs inline, skipping the cross-thread
        // handoff entirely; the result is identical either way
        // because the per-node loops share no state.
        active.clear();
        for (std::size_t i = 0; i < n; ++i) {
            Cycle target = win.nodes[i].wake;
            if (recoveryActive_)
                target = std::min(target,
                                  nodes_[i]->nextRecoveryCycle());
            if (!skipping || target < E)
                active.push_back(i);
        }

        auto runNode = [&](std::size_t i) {
            DataScalarNode &node = *nodes_[i];
            ooo::OoOCore &core = node.core();
            ParallelWindow::NodeState &st = win.nodes[i];
            Cycle c = W;
            while (true) {
                if (skipping) {
                    Cycle target = st.wake;
                    if (recoveryActive_)
                        target = std::min(target,
                                          node.nextRecoveryCycle());
                    c = std::max(c, target);
                }
                if (c >= E)
                    break;
                st.now = c;
                if (recoveryActive_) {
                    st.phase = ParallelWindow::PhaseRecovery;
                    node.checkRecovery(c);
                    st.phase = ParallelWindow::PhaseTick;
                }
                if (!skipping || st.wake <= c) {
                    core.tick(c);
                    st.wake =
                        skipping ? core.nextEventCycle(c) : c + 1;
                    if (!st.doneSeen && core.done()) {
                        st.doneSeen = true;
                        st.doneCycle = c;
                    }
                }
                ++c;
            }
        };

        if (!active.empty()) {
            if (direct) {
                for (std::size_t i : active)
                    nodes_[i]->setTraceSink(&win.nodes[i]);
            }
            pwin_ = &win;
            if (active.size() == 1) {
                runNode(active[0]);
            } else {
                pool.parallelFor(active.size(), [&](std::size_t k) {
                    runNode(active[k]);
                });
            }
            pwin_ = nullptr;
            if (direct) {
                for (std::size_t i : active)
                    nodes_[i]->setTraceSink(direct);
            }
        }
        if (prof_)
            prof_->lap(ph_tick);

        // ---- Barrier: deterministic merge-replay -----------------
        // (cycle, phase, node, seq) reproduces the serial
        // interleaving; replaying sends through broadcastNow() makes
        // bus/ring occupancy, fault decisions (and their trace
        // events), and delivery tie-break order evolve exactly as in
        // the serial loop.
        {
            std::vector<ParallelWindow::Item> merged;
            std::size_t total = 0;
            for (const auto &st : win.nodes)
                total += st.items.size();
            merged.reserve(total);
            for (auto &st : win.nodes) {
                merged.insert(merged.end(), st.items.begin(),
                              st.items.end());
                st.items.clear();
            }
            std::sort(merged.begin(), merged.end(),
                      [](const ParallelWindow::Item &a,
                         const ParallelWindow::Item &b) {
                          if (a.cycle != b.cycle)
                              return a.cycle < b.cycle;
                          if (a.phase != b.phase)
                              return a.phase < b.phase;
                          if (a.node != b.node)
                              return a.node < b.node;
                          return a.seq < b.seq;
                      });
            for (const ParallelWindow::Item &it : merged) {
                if (it.isSend)
                    broadcastNow(it.node, it.line, it.kind, it.ready);
                else
                    direct->event(it.event);
            }
        }
        if (prof_)
            prof_->lap(ph_barrier);

        // ---- End-of-window bookkeeping (serial loop's tail) ------
        bool all_done = true;
        InstSeq min_commit = ~static_cast<InstSeq>(0);
        for (const auto &node : nodes_) {
            all_done = all_done && node->core().done();
            min_commit =
                std::min(min_commit, node->core().committedSeq());
        }

        if (all_done && deliveries_.empty()) {
            // The last core finished inside this window; the serial
            // loop breaks at the finishing tick's cycle.
            Cycle final_cycle = W;
            for (const auto &st : win.nodes)
                if (st.doneSeen)
                    final_cycle = std::max(final_cycle, st.doneCycle);
            if (sampler_)
                sampler_->advance(final_cycle);
            if (prof_)
                prof_->lap(ph_book);
            return {final_cycle + 1, loop_ticks};
        }

        stream_.trim(min_commit);

        if (min_commit > last_min_commit) {
            last_min_commit = min_commit;
            // Window-granular progress stamping: at most one window
            // later than the serial loop's per-cycle stamp, which
            // only shifts when a deadlocked run panics (passing runs
            // never get near the deadline — see docs/PERF.md).
            last_progress_cycle = E - 1;
        } else if ((E - 1) - last_progress_cycle >
                   config_.watchdogCycles) {
            watchdogFire(E - 1, min_commit, all_done);
        }

        // ---- Next window start -----------------------------------
        deadline = last_progress_cycle + config_.watchdogCycles + 1;
        Cycle next = E;
        if (skipping) {
            Cycle soonest = nextDeliveryCycle();
            for (const auto &st : win.nodes)
                soonest = std::min(soonest, st.wake);
            if (recoveryActive_) {
                for (const auto &node : nodes_)
                    soonest =
                        std::min(soonest, node->nextRecoveryCycle());
            }
            next = std::max(E, std::min(soonest, deadline));
        }
        if (sampler_)
            sampler_->advance(next - 1);
        window_start = next;
        if (prof_)
            prof_->lap(ph_book);
    }
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
