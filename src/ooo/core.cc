#include "ooo/core.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "prog/layout.hh"

namespace dscalar {
namespace ooo {

using isa::OpClass;

Cycle
CoreParams::opLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu: return intAluLat;
      case OpClass::IntMul: return intMulLat;
      case OpClass::IntDiv: return intDivLat;
      case OpClass::FpAdd: return fpAddLat;
      case OpClass::FpMul: return fpMulLat;
      case OpClass::FpDiv: return fpDivLat;
      case OpClass::Ctrl: return 1;
      default: return 1;
    }
}

unsigned
CoreParams::fuPool(OpClass cls)
{
    switch (cls) {
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return 1;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return 2;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return 3;
      default:
        return 0; // simple ALU / control / misc
    }
}

OoOCore::OoOCore(const CoreParams &params, OracleStream &stream,
                 MemBackend &backend)
    : params_(params), stream_(stream), backend_(backend),
      backendMayStall_(backend.fetchesMayStall()),
      icache_(params.icache), dcache_(params.dcache),
      ruu_(params.ruuEntries)
{
    fatal_if(params_.ruuEntries == 0, "RUU must have entries");
    fatal_if(params_.lsqEntries == 0, "LSQ must have entries");
    std::fill(std::begin(lastWriter_), std::end(lastWriter_), 0);

    // TLBs: one fully associative set of page-granular entries.
    auto make_tlb = [](unsigned entries) {
        return std::make_unique<mem::Cache>(mem::CacheParams{
            entries * prog::pageSize, entries,
            static_cast<unsigned>(prog::pageSize), true});
    };
    if (params_.dtlbEntries)
        dtlb_ = make_tlb(params_.dtlbEntries);
    if (params_.itlbEntries)
        itlb_ = make_tlb(params_.itlbEntries);
}

Cycle
OoOCore::tlbPenalty(mem::Cache *tlb, Addr addr,
                    std::uint64_t &miss_stat)
{
    if (!tlb)
        return 0;
    if (tlb->access(addr, false).hit)
        return 0;
    ++miss_stat;
    return params_.tlbWalkCycles;
}

void
OoOCore::tick(Cycle now)
{
    if (done_)
        return;
    tickProgressed_ = false;
    processCompletions(now);
    doCommit(now);
    doIssue(now);
    doFetch(now);
}

Cycle
OoOCore::nextEventCycle(Cycle now) const
{
    if (done_)
        return cycleMax;

    // Fast path: a tick that completed, committed, issued, or
    // dispatched anything may well act again next cycle. now + 1 is
    // always a conservative answer, and skipping the full scan below
    // keeps the query O(1) on busy cores, where it would otherwise
    // re-do most of the issue stage's work every cycle. Stalled
    // cores — the case skipping exists for — take the precise path.
    if (tickProgressed_)
        return now + 1;

    // An empty window resolves within one tick: either fetch refills
    // it, or doCommit's empty-window probe discovers the end of a
    // truncated stream and flips done_.
    if (windowSize() == 0)
        return now + 1;

    // Commit: the head is complete but this cycle's commit width ran
    // out before reaching it.
    if (ruu_[headSlot_].completed)
        return now + 1;

    // Issue: a ready uop that is not waiting on an MSHR entry can
    // issue next cycle — FU pools and issue width are per-cycle
    // budgets. Blocked loads unblock only through events that are
    // themselves tracked: the blocking store issuing (loads it blocks
    // wait in memOrderWait_, not here), a commit freeing a DCUB
    // entry, or an external fill (which re-ticks the core anyway).
    for (InstSeq seq : readyList_) {
        const Uop &u = uop(seq);
        if (!u.isLoad || (!mshrStalled(u) && !backendStalled(u)))
            return now + 1;
    }

    Cycle next = cycleMax;

    // Scheduled completions: FU latencies, cache hits, arrived fills.
    if (!completionEvents_.empty())
        next = completionEvents_.top().when;

    // Fetch.
    if (!fetchEnded_) {
        if (now < fetchStallUntil_) {
            next = std::min(next, fetchStallUntil_);
        } else if (windowSize() < params_.ruuEntries) {
            if (!stream_.available(nextFetchSeq_))
                return now + 1; // a tick must discover the stream end
            const func::DynInst &di = stream_.get(nextFetchSeq_);
            if (!di.inst.isMem() || lsqOccupancy_ < params_.lsqEntries)
                return now + 1;
            // LSQ full on a memory instruction: dispatch resumes only
            // after a commit, which a completion or fill must unblock.
        }
        // Window full: same — fetch resumes only after a commit.
    }

    return std::max(next, now + 1);
}

void
OoOCore::scheduleCompletion(InstSeq seq, Cycle when)
{
    completionEvents_.push(
        CompletionEvent{when, completionOrder_++, seq});
}

void
OoOCore::processCompletions(Cycle now)
{
    while (!completionEvents_.empty() &&
           completionEvents_.top().when <= now) {
        CompletionEvent e = completionEvents_.top();
        completionEvents_.pop();
        tickProgressed_ = true;
        complete(e.seq, e.when);
    }
}

void
OoOCore::complete(InstSeq seq, Cycle now)
{
    Uop &u = uop(seq);
    panic_if(u.completed, "double completion of %llu",
             (unsigned long long)seq);
    u.completed = true;
    u.readyAt = now;
    for (Edge e = u.firstConsumer; e != 0;) {
        Uop &c = uop(edgeSeq(e));
        e = c.nextConsumer[edgeSlot(e)];
        panic_if(c.waitCount == 0, "consumer waitCount underflow");
        if (--c.waitCount == 0 && !c.issued)
            makeReady(c);
    }
    u.firstConsumer = 0;
}

void
OoOCore::makeReady(const Uop &u)
{
    std::vector<InstSeq> &list =
        u.isLoad && loadBlockedByStore(u) ? memOrderWait_ : readyList_;
    list.insert(std::upper_bound(list.begin(), list.end(), u.seq), u.seq);
}

// -------------------------------------------------------------------
// Commit
// -------------------------------------------------------------------

void
OoOCore::doCommit(Cycle now)
{
    // A truncated stream's end may only be discovered by the fetch
    // probe that runs *after* the final commit (tiny windows): catch
    // up here, or the core would never report done.
    if (windowSize() == 0 && stream_.ended() &&
        nextCommitSeq_ == stream_.endSeq()) {
        done_ = true;
        return;
    }
    for (unsigned n = 0; n < params_.commitWidth; ++n) {
        if (windowSize() == 0)
            return;
        Uop &u = ruu_[headSlot_];
        if (!u.completed || u.readyAt > now)
            return;

        if (!params_.perfectData) {
            if (u.isLoad)
                commitLoad(u, now);
            else if (u.isStore)
                commitStore(u, now);
        } else if (u.usesDcub) {
            releaseDcubUser(u.lineAddr);
        }

        ++stats_.committed;
        tickProgressed_ = true;
        if (u.isLoad)
            ++stats_.loads;
        if (u.isStore) {
            ++stats_.stores;
            panic_if(windowStores_.empty() ||
                         windowStores_.front() != u.seq,
                     "store queue out of sync");
            windowStores_.pop_front();
        }
        if (u.isLoad || u.isStore) {
            panic_if(lsqOccupancy_ == 0, "LSQ underflow");
            --lsqOccupancy_;
        }

        if (++headSlot_ == ruu_.size())
            headSlot_ = 0;
        ++nextCommitSeq_;

        if (stream_.ended() && nextCommitSeq_ == stream_.endSeq()) {
            done_ = true;
            return;
        }
    }
}

void
OoOCore::commitLoad(Uop &u, Cycle now)
{
    mem::CacheAccessResult res = dcache_.access(u.lineAddr, false);
    if (res.hit) {
        if (!u.issueHit) {
            ++stats_.falseMisses;
            if (traceSink_) {
                traceSink_->event({traceNode_, now,
                                   TraceEventKind::FalseMiss,
                                   u.lineAddr});
            }
        }
    } else {
        ++stats_.canonicalLoadMisses;
        if (u.issueHit) {
            ++stats_.falseHits;
            if (traceSink_) {
                traceSink_->event({traceNode_, now,
                                   TraceEventKind::FalseHit,
                                   u.lineAddr});
            }
        }
        if (res.evicted && res.victimDirty) {
            ++stats_.dirtyWriteBacks;
            backend_.writeBack(res.victimAddr, now);
        }
        auto it = dcub_.find(u.lineAddr);
        if (it != dcub_.end() && !it->second.claimed) {
            // The one fetch this node performed for this line
            // episode is assigned to this (canonical) miss.
            it->second.claimed = true;
        } else {
            // Pure false hit: this node never fetched the line this
            // episode. Owners repair with a reparative broadcast;
            // non-owners squash the incoming one.
            ++stats_.unclaimedRepairs;
            backend_.onUnclaimedCanonicalMiss(u.lineAddr, now);
        }
    }
    if (u.usesDcub)
        releaseDcubUser(u.lineAddr);
}

void
OoOCore::commitStore(Uop &u, Cycle now)
{
    // Stores translate at commit; the refill is modelled, the walk
    // latency is off the critical path (stores are not waited on).
    tlbPenalty(dtlb_.get(), u.effAddr, stats_.dtlbMisses);
    mem::CacheAccessResult res = dcache_.access(u.lineAddr, true);
    if (res.hit)
        return;
    ++stats_.storeCommitMisses;
    if (res.allocated) {
        // Write-allocate policy (ablation): the line must be fetched
        // just to be overwritten -- the inter-processor message the
        // paper's write-noallocate choice avoids. A store-allocate
        // is a canonical miss like any other: it claims an in-flight
        // load fetch for the same line if one exists, else raises
        // the fetch itself.
        if (res.evicted && res.victimDirty) {
            ++stats_.dirtyWriteBacks;
            backend_.writeBack(res.victimAddr, now);
        }
        auto it = dcub_.find(u.lineAddr);
        if (it != dcub_.end() && !it->second.claimed)
            it->second.claimed = true;
        else
            backend_.onUnclaimedCanonicalMiss(u.lineAddr, now);
    } else {
        // Write-noallocate: the word is written through to memory.
        backend_.storeMiss(u.lineAddr, now);
    }
}

void
OoOCore::releaseDcubUser(Addr line)
{
    auto it = dcub_.find(line);
    panic_if(it == dcub_.end(), "DCUB entry for 0x%llx missing",
             (unsigned long long)line);
    DcubEntry &e = it->second;
    panic_if(e.users == 0, "DCUB user underflow");
    if (--e.users == 0) {
        panic_if(!e.waiters.empty(), "DCUB freed with waiters");
        panic_if(e.pending, "DCUB freed while pending");
        panic_if(!e.claimed && !params_.perfectData,
                 "DCUB entry for 0x%llx freed unclaimed",
                 (unsigned long long)line);
        dcub_.erase(it);
    }
}

// -------------------------------------------------------------------
// Issue
// -------------------------------------------------------------------

bool
OoOCore::loadBlockedByStore(const Uop &u) const
{
    // Dispatch pushes stores in ascending seq and issue erases in
    // place, so the front is always the oldest unknown address.
    return !unknownAddrStores_.empty() &&
           unknownAddrStores_.front() < u.seq;
}

bool
OoOCore::mshrStalled(const Uop &u) const
{
    // A load that would start a new line fill must wait for a free
    // MSHR/DCUB entry (merging loads may proceed). The oldest
    // instruction always bypasses the limit: without this reserve,
    // two nodes whose MSHRs are full of waits on each other's
    // broadcasts deadlock.
    return params_.maxOutstandingFills != 0 &&
           u.seq != nextCommitSeq_ &&
           dcub_.size() >= params_.maxOutstandingFills &&
           !params_.perfectData &&
           dcub_.find(u.lineAddr) == dcub_.end() &&
           !dcache_.probe(u.lineAddr) && !forwardingStore(u);
}

bool
OoOCore::backendStalled(const Uop &u) const
{
    // Backend (hard BSHR) flow control mirrors the MSHR reserve: a
    // load that would start a new fetch waits until the backend can
    // accept one, and the oldest instruction bypasses the check so
    // forward progress survives a full bank.
    return backendMayStall_ && u.seq != nextCommitSeq_ &&
           !params_.perfectData &&
           dcub_.find(u.lineAddr) == dcub_.end() &&
           !dcache_.probe(u.lineAddr) && !forwardingStore(u) &&
           !backend_.canAcceptFetch(u.lineAddr);
}

const OoOCore::Uop *
OoOCore::forwardingStore(const Uop &u) const
{
    // Walk back from the youngest store older than the load.
    auto it = std::lower_bound(windowStores_.begin(),
                               windowStores_.end(), u.seq);
    while (it != windowStores_.begin()) {
        const Uop &st = uop(*--it);
        if (!st.issued)
            continue; // address unknown; caller checked blocking
        bool overlap = st.effAddr < u.effAddr + u.memSize &&
                       u.effAddr < st.effAddr + st.memSize;
        if (overlap)
            return &st;
    }
    return nullptr;
}

void
OoOCore::doIssue(Cycle now)
{
    unsigned issued = 0;
    // Per-cycle functional-unit pool budgets (0 = unlimited).
    unsigned pool_left[4] = {
        params_.intAluUnits ? params_.intAluUnits : ~0u,
        params_.intMulUnits ? params_.intMulUnits : ~0u,
        params_.fpUnits ? params_.fpUnits : ~0u,
        params_.memPorts ? params_.memPorts : ~0u,
    };
    // One pass over the ready list in ascending seq (the order the
    // former std::set iterated in), compacting out the entries that
    // issue; blocked entries and everything past the issue-width
    // budget stay, in order, without reallocating. Loads a store
    // issue releases join the unvisited tail of this same pass.
    std::size_t out = 0;
    for (std::size_t in = 0; in < readyList_.size(); ++in) {
        InstSeq seq = readyList_[in];
        if (issued >= params_.issueWidth) {
            readyList_[out++] = seq;
            continue;
        }
        Uop &u = uop(seq);
        panic_if(u.issued, "ready list holds issued uop");

        if (u.isLoad && mshrStalled(u)) {
            ++stats_.mshrStallEvents;
            readyList_[out++] = seq;
            continue;
        }

        if (u.isLoad && backendStalled(u)) {
            ++stats_.backendStallEvents;
            readyList_[out++] = seq;
            continue;
        }

        unsigned pool = CoreParams::fuPool(u.cls);
        if (pool_left[pool] == 0) {
            readyList_[out++] = seq;
            continue;
        }
        --pool_left[pool];

        u.issued = true;
        if (u.isLoad) {
            issueLoad(u, now);
        } else if (u.isStore) {
            auto st = std::find(unknownAddrStores_.begin(),
                                unknownAddrStores_.end(), u.seq);
            panic_if(st == unknownAddrStores_.end(),
                     "issuing store missing from address queue");
            bool oldest = st == unknownAddrStores_.begin();
            unknownAddrStores_.erase(st);
            scheduleCompletion(u.seq, now + 1);
            if (oldest)
                releaseWaitingLoads(in);
        } else {
            scheduleCompletion(u.seq, now + params_.opLatency(u.cls));
        }
        ++issued;
        tickProgressed_ = true;
    }
    readyList_.resize(out);
}

void
OoOCore::releaseWaitingLoads(std::size_t pos)
{
    // Every waiting load is younger than the store just issued, so
    // merging the released ones behind position @p pos keeps the
    // pass in ascending seq: they issue exactly when a rescan of a
    // ready list that had held them all along would issue them.
    auto end = unknownAddrStores_.empty()
                   ? memOrderWait_.end()
                   : std::lower_bound(memOrderWait_.begin(),
                                      memOrderWait_.end(),
                                      unknownAddrStores_.front());
    if (end == memOrderWait_.begin())
        return;
    auto tail = readyList_.begin() + pos + 1;
    mergeScratch_.clear();
    std::merge(tail, readyList_.end(), memOrderWait_.begin(), end,
               std::back_inserter(mergeScratch_));
    readyList_.erase(tail, readyList_.end());
    readyList_.insert(readyList_.end(), mergeScratch_.begin(),
                      mergeScratch_.end());
    memOrderWait_.erase(memOrderWait_.begin(), end);
}

void
OoOCore::issueLoad(Uop &u, Cycle now)
{
    // Store-to-load forwarding: single cycle from the LSQ.
    if (const Uop *st = forwardingStore(u)) {
        (void)st;
        ++stats_.forwardedLoads;
        ++stats_.loadIssueHits;
        u.issueHit = true;
        scheduleCompletion(u.seq, now + 1);
        return;
    }

    if (params_.perfectData) {
        u.issueHit = true;
        scheduleCompletion(u.seq, now + params_.l1Latency);
        return;
    }

    // Address translation: a dTLB miss walks the (local, replicated)
    // page table before the cache access can start.
    Cycle mnow =
        now + tlbPenalty(dtlb_.get(), u.effAddr, stats_.dtlbMisses);

    // In-flight line in the DCUB: the episode's one miss already
    // belongs to the fetch initiator; this access merges.
    auto it = dcub_.find(u.lineAddr);
    if (it != dcub_.end()) {
        DcubEntry &e = it->second;
        u.usesDcub = true;
        u.issueHit = true;
        ++e.users;
        ++stats_.loadIssueHits;
        if (e.pending) {
            e.waiters.push_back(u.seq);
        } else {
            scheduleCompletion(u.seq, std::max(mnow + 1, e.readyAt));
        }
        return;
    }

    // Commit-updated tag array.
    if (dcache_.probe(u.lineAddr)) {
        u.issueHit = true;
        ++stats_.loadIssueHits;
        scheduleCompletion(u.seq, mnow + params_.l1Latency);
        return;
    }

    // Issue-time miss: allocate a DCUB entry and start the fetch.
    u.issueHit = false;
    u.usesDcub = true;
    ++stats_.loadIssueMisses;
    DcubEntry entry;
    entry.users = 1;
    FillResult fill = backend_.startLineFetch(u.lineAddr, mnow);
    if (fill.readyAt == cycleMax) {
        entry.pending = true;
        entry.waiters.push_back(u.seq);
    } else {
        entry.pending = false;
        entry.readyAt = fill.readyAt;
        scheduleCompletion(u.seq, std::max(mnow + 1, fill.readyAt));
    }
    dcub_.emplace(u.lineAddr, std::move(entry));
    stats_.maxDcubOccupancy =
        std::max<std::uint64_t>(stats_.maxDcubOccupancy, dcub_.size());
}

void
OoOCore::fillArrived(Addr line, Cycle ready_at, Cycle now)
{
    auto it = dcub_.find(line);
    panic_if(it == dcub_.end(), "fill for 0x%llx without DCUB entry",
             (unsigned long long)line);
    DcubEntry &e = it->second;
    panic_if(!e.pending, "fill for non-pending DCUB entry 0x%llx",
             (unsigned long long)line);
    e.pending = false;
    e.readyAt = std::max(ready_at, now + 1);
    for (InstSeq seq : e.waiters)
        scheduleCompletion(seq, e.readyAt);
    e.waiters.clear();
}

bool
OoOCore::hasPendingFill(Addr line) const
{
    auto it = dcub_.find(line);
    return it != dcub_.end() && it->second.pending;
}

// -------------------------------------------------------------------
// Fetch / dispatch
// -------------------------------------------------------------------

void
OoOCore::doFetch(Cycle now)
{
    if (fetchEnded_ || now < fetchStallUntil_)
        return;

    for (unsigned f = 0; f < params_.fetchWidth; ++f) {
        if (windowSize() >= params_.ruuEntries)
            return;
        if (!stream_.available(nextFetchSeq_)) {
            fetchEnded_ = true;
            return;
        }
        const func::DynInst &di = stream_.get(nextFetchSeq_);

        if (di.inst.isMem() && lsqOccupancy_ >= params_.lsqEntries)
            return;

        Addr iline = icache_.lineAlign(di.pc);
        if (iline != lastFetchLine_) {
            Cycle itlb_pen =
                tlbPenalty(itlb_.get(), di.pc, stats_.itlbMisses);
            bool hit = icache_.probe(iline);
            icache_.access(iline, false);
            lastFetchLine_ = iline;
            if (!hit) {
                ++stats_.icacheMisses;
                fetchStallUntil_ =
                    backend_.fetchInstLine(iline, now + itlb_pen);
                return;
            }
            if (itlb_pen) {
                fetchStallUntil_ = now + itlb_pen;
                return;
            }
        }

        // Dispatch into the RUU's free slot past the youngest uop.
        InstSeq seq = di.seq;
        Uop &u = ruu_[slotOf(seq)];
        u = Uop{};
        u.seq = seq;
        u.cls = di.inst.info().opClass;
        u.isLoad = di.inst.isLoad();
        u.isStore = di.inst.isStore();
        if (u.isLoad || u.isStore) {
            u.effAddr = di.effAddr;
            u.memSize = di.memSize;
            u.lineAddr = dcache_.lineAlign(di.effAddr);
        }

        RegIndex srcs[2];
        int nsrc = di.inst.srcRegs(srcs);
        for (int i = 0; i < nsrc; ++i) {
            InstSeq lw = lastWriter_[srcs[i]];
            if (lw != 0 && lw - 1 >= nextCommitSeq_) {
                Uop &producer = uop(lw - 1);
                if (!producer.completed) {
                    u.nextConsumer[i] = producer.firstConsumer;
                    producer.firstConsumer = makeEdge(seq, i);
                    ++u.waitCount;
                }
            }
        }

        int dest = di.inst.destReg();
        if (dest >= 0)
            lastWriter_[dest] = seq + 1;
        if (u.isStore) {
            windowStores_.push_back(seq);
            unknownAddrStores_.push_back(seq);
        }
        if (u.isLoad || u.isStore)
            ++lsqOccupancy_;
        if (u.waitCount == 0)
            makeReady(u);

        ++nextFetchSeq_;
        tickProgressed_ = true;
    }
}

} // namespace ooo
} // namespace dscalar
