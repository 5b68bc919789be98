#include "core/node.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace dscalar {
namespace core {

using interconnect::MsgKind;

DataScalarNode::DataScalarNode(NodeId id, const SimConfig &config,
                               const mem::PageTable &ptable,
                               ooo::OracleStream &stream,
                               BroadcastPort &port)
    : id_(id), ptable_(ptable), port_(port), localMem_(config.mem),
      bshr_(config.bshrLatency, config.bshrCapacity,
            config.bshrHardCapacity),
      rerequestTimeout_(config.rerequestTimeout),
      backoffCap_(config.rerequestBackoffCap
                      ? config.rerequestBackoffCap
                      : 8 * config.rerequestTimeout),
      maxRetries_(config.rerequestMaxRetries),
      hardBshr_(config.bshrHardCapacity),
      core_(config.core, stream, *this)
{
}

bool
DataScalarNode::isLocal(Addr line) const
{
    return ptable_.isLocal(line, id_);
}

bool
DataScalarNode::isOwner(Addr line) const
{
    return !ptable_.isReplicated(line) && ptable_.owner(line) == id_;
}

ooo::FillResult
DataScalarNode::startLineFetch(Addr line, Cycle now)
{
    if (isLocal(line)) {
        Cycle done = localMem_.request(line, now);
        ++stats_.localLoadFills;
        if (isOwner(line)) {
            // ESP: push the operand to every other node.
            ++stats_.ownerBroadcasts;
            traceEvent(now, TraceEventKind::Broadcast, line);
            port_.broadcast(id_, line, MsgKind::Broadcast, done);
        }
        return {done, false};
    }

    // Communicated line owned elsewhere: never send a request --
    // match or await the owner's broadcast in the BSHR.
    ++stats_.remoteFetches;
    Cycle ready = 0;
    if (bshr_.requestLine(line, now, ready) == Bshr::Lookup::FoundBuffered)
        return {ready, true};
    if (rerequestTimeout_ > 0) {
        // Arm recovery: if no broadcast lands within the timeout,
        // re-request the line from its owner. An existing entry keeps
        // its (earlier) deadline.
        Cycle deadline = now + rerequestTimeout_;
        if (rerequests_.emplace(line, RetryState{0, deadline}).second)
            nextDue_ = std::min(nextDue_, deadline);
    }
    return {cycleMax, false};
}

void
DataScalarNode::onUnclaimedCanonicalMiss(Addr line, Cycle now)
{
    if (ptable_.isReplicated(line)) {
        // Local at every node; the canonical refill is a local access
        // off the critical path.
        localMem_.request(line, now);
        return;
    }
    if (isOwner(line)) {
        // Reparative broadcast: the other nodes are (or will be)
        // waiting for data this node's issue stream never missed on.
        ++stats_.reparativeBroadcasts;
        traceEvent(now, TraceEventKind::ReparativeBroadcast, line);
        port_.broadcast(id_, line, MsgKind::ReparativeBroadcast, now);
    } else {
        bshr_.registerSquash(line);
    }
}

void
DataScalarNode::writeBack(Addr line, Cycle now)
{
    if (isLocal(line)) {
        ++stats_.localWriteBacks;
        localMem_.request(line, now);
    } else {
        // ESP: every node computes the same stores; only the owner
        // completes the write-back. Dropped without bus traffic.
        ++stats_.droppedWriteBacks;
    }
}

void
DataScalarNode::storeMiss(Addr line, Cycle now)
{
    if (isLocal(line)) {
        ++stats_.localStoreWrites;
        localMem_.request(line, now);
    } else {
        ++stats_.droppedStoreWrites;
    }
}

Cycle
DataScalarNode::fetchInstLine(Addr line, Cycle now)
{
    fatal_if(!isLocal(line),
             "DataScalar requires program text to be replicated "
             "(instruction line 0x%llx is remote at node %u)",
             (unsigned long long)line, id_);
    ++stats_.instLineFills;
    return localMem_.request(line, now);
}

void
DataScalarNode::deliverBroadcast(Addr line, Cycle now)
{
    Cycle ready = 0;
    switch (bshr_.deliver(line, now, ready)) {
      case Bshr::Deliver::WokeWaiter:
        traceEvent(now, TraceEventKind::BshrWake, line);
        core_.fillArrived(line, ready, now);
        recoverySettle(line, now);
        break;
      case Bshr::Deliver::Buffered:
        traceEvent(now, TraceEventKind::BshrBuffer, line);
        recoverySettle(line, now);
        break;
      case Bshr::Deliver::Squashed:
        traceEvent(now, TraceEventKind::BshrSquash, line);
        break;
      case Bshr::Deliver::DroppedFull:
        // Hard-capacity bank refused the data; any node that later
        // misses on the line recovers it via re-request.
        traceEvent(now, TraceEventKind::BshrDropFull, line);
        break;
    }
}

void
DataScalarNode::deliverRerequest(Addr line, Cycle now)
{
    // Only the owner can answer; every other node sees the
    // re-request on the broadcast medium and ignores it.
    if (!isOwner(line))
        return;
    ++stats_.recoveryBroadcasts;
    traceEvent(now, TraceEventKind::RecoveryBroadcast, line);
    Cycle done = localMem_.request(line, now);
    port_.broadcast(id_, line, MsgKind::Broadcast, done);
}

void
DataScalarNode::recoverySettle(Addr line, Cycle now)
{
    if (rerequestTimeout_ == 0)
        return;
    auto it = rerequests_.find(line);
    if (it == rerequests_.end())
        return;
    Cycle was = it->second.nextAt;
    if (bshr_.waiterCount(line) > 0) {
        // Data flowed but more waiters remain (e.g.\ a duplicate miss
        // episode): restart the clock with a clean attempt count.
        it->second = RetryState{0, now + rerequestTimeout_};
        nextDue_ = std::min(nextDue_, it->second.nextAt);
    } else {
        rerequests_.erase(it);
    }
    // Only a move away from the earliest deadline can raise it.
    if (was == nextDue_)
        reindexRecovery();
}

bool
DataScalarNode::scanRecovery(Cycle now)
{
    Cycle soonest = cycleMax;
    for (auto &[line, st] : rerequests_) {
        if (st.nextAt > now) {
            soonest = std::min(soonest, st.nextAt);
            continue;
        }
        if (bshr_.waiterCount(line) == 0) {
            // Waiter satisfied through another path (e.g.\ buffered
            // hit); the entry is swept here rather than erased
            // mid-loop.
            st.nextAt = cycleMax;
            continue;
        }
        if (st.attempts >= maxRetries_) {
            // An expected outcome of a hopeless config (a lossy
            // medium, or a timeout too short for hard-BSHR flow
            // control), not a broken invariant: end the run.
            failure_ = csprintf("node %u: line 0x%llx still missing "
                                "after %u re-requests -- owner "
                                "unreachable",
                                id_, (unsigned long long)line,
                                st.attempts);
            return false;
        }
        ++stats_.rerequestsSent;
        traceEvent(now, TraceEventKind::Rerequest, line);
        port_.broadcast(id_, line, MsgKind::Rerequest, now);
        ++st.attempts;
        // Exponential backoff: timeout, 2*timeout, ... capped.
        Cycle backoff = rerequestTimeout_;
        for (unsigned i = 0; i < st.attempts && backoff < backoffCap_;
             ++i)
            backoff *= 2;
        st.nextAt = now + std::min(backoff, backoffCap_);
        soonest = std::min(soonest, st.nextAt);
    }
    nextDue_ = soonest;
    return true;
}

void
DataScalarNode::reindexRecovery()
{
    nextDue_ = cycleMax;
    for (const auto &[line, st] : rerequests_)
        nextDue_ = std::min(nextDue_, st.nextAt);
}

void
DataScalarNode::setTraceSink(TraceSink *sink)
{
    trace_ = sink;
    core_.setTraceSink(sink, id_);
}

bool
DataScalarNode::canAcceptFetch(Addr line) const
{
    return !hardBshr_ || isLocal(line) || bshr_.canAccept(line);
}

void
DataScalarNode::traceEvent(Cycle now, TraceEventKind kind,
                           Addr line) const
{
    if (trace_)
        trace_->event({id_, now, kind, line});
}

void
DataScalarNode::buildStats(stats::Snapshot &snap) const
{
    const ooo::CoreStats &cs = core_.coreStats();
    const BshrStats &bs = bshr_.bshrStats();
    std::string key = "node" + std::to_string(id_);
    stats::Snapshot::GroupEntry &g = snap.addGroup(key, key + ":");
    auto line = [&snap, &g](const char *name, std::uint64_t v,
                            const char *desc) {
        snap.addCounter(g, name, v, desc);
    };
    line("committed", cs.committed, "instructions committed");
    line("loads", cs.loads, "loads committed");
    line("stores", cs.stores, "stores committed");
    line("load_issue_misses", cs.loadIssueMisses,
         "issue-time L1D misses (DCUB fetches)");
    line("canonical_load_misses", cs.canonicalLoadMisses,
         "commit-time (canonical) load misses");
    line("false_hits", cs.falseHits,
         "issue hit but canonical miss");
    line("false_misses", cs.falseMisses,
         "issue miss but canonical hit");
    line("unclaimed_repairs", cs.unclaimedRepairs,
         "canonical misses with no local fetch");
    line("store_commit_misses", cs.storeCommitMisses,
         "stores missing at commit");
    line("dirty_writebacks", cs.dirtyWriteBacks,
         "dirty victims evicted");
    line("icache_misses", cs.icacheMisses, "instruction-line fills");
    line("owner_broadcasts", stats_.ownerBroadcasts,
         "ESP broadcasts sent at issue");
    line("reparative_broadcasts", stats_.reparativeBroadcasts,
         "late broadcasts sent at commit");
    line("remote_fetches", stats_.remoteFetches,
         "fetches of unowned communicated lines");
    line("dropped_writebacks", stats_.droppedWriteBacks,
         "write-backs completed by another owner");
    line("dropped_store_writes", stats_.droppedStoreWrites,
         "store-miss writes completed elsewhere");
    line("bshr_waiter_allocs", bs.waiterAllocs,
         "misses that awaited a broadcast");
    line("bshr_buffered_hits", bs.bufferedHits,
         "data already waiting in the BSHR");
    line("bshr_squashes", bs.squashes, "squashed BSHR entries");
    line("bshr_max_occupancy", bs.maxOccupancy,
         "peak BSHR entries in use");
    if (rerequestTimeout_ > 0) {
        line("rerequests_sent", stats_.rerequestsSent,
             "recovery re-requests issued");
        line("recovery_broadcasts", stats_.recoveryBroadcasts,
             "re-requests answered as owner");
    }
    if (hardBshr_) {
        line("bshr_full_drops", bs.fullDrops,
             "broadcasts refused by the full bank");
        line("backend_stall_events", cs.backendStallEvents,
             "loads stalled on BSHR flow control");
    }
}

void
DataScalarNode::watchdogDump(std::ostream &os, Cycle now) const
{
    os << "node " << id_ << ": committed "
       << core_.coreStats().committed << ", window "
       << core_.windowSize() << " uops, done "
       << (core_.done() ? 1 : 0) << '\n';
    // The first lines of each list: a deadlocked run's error carries
    // the dump, and every node's head must fit in it.
    constexpr std::size_t kListed = 4;
    auto more = [&os](std::size_t total) {
        if (total > kListed)
            os << "    ... " << total - kListed << " more\n";
    };
    auto entries = bshr_.entries();
    os << "  bshr: " << bshr_.occupancy() << " occupied, "
       << entries.size() << " lines\n";
    for (std::size_t i = 0; i < std::min(entries.size(), kListed); ++i) {
        const auto &e = entries[i];
        os << "    line 0x" << std::hex << e.line << std::dec << ": "
           << e.waiters << " waiters, " << e.buffered << " buffered, "
           << e.pendingSquashes << " pending squashes";
        if (e.waiters > 0) {
            os << ", oldest waiter age "
               << (now >= e.firstWaitAt ? now - e.firstWaitAt : 0);
        }
        os << '\n';
    }
    more(entries.size());
    std::size_t listed = 0;
    for (const auto &[line, st] : rerequests_) {
        if (listed++ == kListed)
            break;
        os << "    rerequest 0x" << std::hex << line << std::dec
           << ": " << st.attempts << " attempts, next at cycle ";
        if (st.nextAt == cycleMax)
            os << "never";
        else
            os << st.nextAt;
        os << '\n';
    }
    more(rerequests_.size());
}

} // namespace core
} // namespace dscalar
