/**
 * @file
 * Out-of-order core in the paper's configuration (Section 4.2):
 * 8-way issue, a 256-entry Register Update Unit tracking
 * dependencies, a load/store queue of half the RUU size, loads sent
 * to the cache at issue time, stores at commit time, single-cycle
 * store-to-load forwarding, perfect branch prediction, non-blocking
 * split L1 caches with an arbitrary number of outstanding misses.
 *
 * The data cache's tag state is only updated at instruction commit,
 * through a Data Commit Update Buffer (DCUB). Each load records its
 * issue-time hit/miss outcome; at commit the canonical in-order
 * outcome is recomputed and disparities (false hits / false misses)
 * are detected and repaired exactly as Section 4.1 describes. The
 * commit-updated tag array is therefore identical at every node of a
 * DataScalar system — the cache correspondence invariant.
 */

#ifndef DSCALAR_OOO_CORE_HH
#define DSCALAR_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "ooo/mem_backend.hh"
#include "ooo/oracle_stream.hh"

namespace dscalar {
namespace ooo {

/** Microarchitectural parameters (defaults = the paper's). */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned ruuEntries = 256;
    unsigned lsqEntries = 128;
    Cycle l1Latency = 1;

    mem::CacheParams icache{16 * 1024, 1, 32, true};
    mem::CacheParams dcache{16 * 1024, 1, 32, false};

    /** Single-cycle access to any operand (the perfect data cache). */
    bool perfectData = false;

    // Fully pipelined functional-unit latencies by class.
    Cycle intAluLat = 1;
    Cycle intMulLat = 3;
    Cycle intDivLat = 12;
    Cycle fpAddLat = 2;
    Cycle fpMulLat = 4;
    Cycle fpDivLat = 12;

    // Functional-unit pool sizes (fully pipelined; issue of a class
    // is limited to its pool per cycle). 0 = unlimited. Defaults
    // model a generous 8-way machine: 8 simple ALUs, shared
    // mul/div, 4 FP units, 4 cache ports.
    unsigned intAluUnits = 8;
    unsigned intMulUnits = 2;
    unsigned fpUnits = 4;
    unsigned memPorts = 4;

    /** Maximum outstanding line fills (DCUB/MSHR entries with a
     *  pending or in-flight fetch). 0 = unlimited — the paper's
     *  "arbitrarily high number of outstanding requests". */
    unsigned maxOutstandingFills = 0;

    // Address translation (the paper implements a single-level page
    // table locked low in memory; we model its timing as TLBs whose
    // misses walk that table in local memory). 0 entries = no
    // translation modelling.
    unsigned dtlbEntries = 64;
    unsigned itlbEntries = 32;
    Cycle tlbWalkCycles = 12; ///< one local bank access + transfer

    Cycle opLatency(isa::OpClass cls) const;

    /** FU pool index for @p cls (see OoOCore::FuPool). */
    static unsigned fuPool(isa::OpClass cls);
};

/** Event counters exported by one core. */
struct CoreStats
{
    std::uint64_t committed = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadIssueMisses = 0;   ///< created a DCUB fetch
    std::uint64_t loadIssueHits = 0;     ///< tags, DCUB, or forward
    std::uint64_t forwardedLoads = 0;
    std::uint64_t canonicalLoadMisses = 0;
    std::uint64_t falseHits = 0;         ///< issue hit, canonical miss
    std::uint64_t falseMisses = 0;       ///< issue miss, canonical hit
    std::uint64_t unclaimedRepairs = 0;  ///< reparative events raised
    std::uint64_t storeCommitMisses = 0;
    std::uint64_t dirtyWriteBacks = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t mshrStallEvents = 0;
    std::uint64_t backendStallEvents = 0; ///< backend flow control
    std::uint64_t maxDcubOccupancy = 0;
};

/**
 * One out-of-order processor consuming the shared oracle stream and
 * talking to a node-specific memory backend.
 */
class OoOCore
{
  public:
    OoOCore(const CoreParams &params, OracleStream &stream,
            MemBackend &backend);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Earliest cycle after @p now at which tick() could change any
     * state (commit, issue, completion, or fetch), assuming no
     * external event intervenes. Returns cycleMax when the core is
     * done or can only be unblocked by an external delivery
     * (fillArrived). Must be queried after tick(now); ticking the
     * core at intermediate cycles is a no-op, which is what lets the
     * run loops fast-forward without changing cycle counts.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** True once the final instruction has committed. */
    bool done() const { return done_; }

    /** Next sequence number to commit (== instructions committed). */
    InstSeq committedSeq() const { return nextCommitSeq_; }

    /**
     * A deferred line fill (broadcast) arrived; data usable at
     * @p ready_at. Must correspond to a pending DCUB entry.
     */
    void fillArrived(Addr line, Cycle ready_at, Cycle now);

    /** True when a pending (unfilled) DCUB entry exists for @p line. */
    bool hasPendingFill(Addr line) const;

    const CoreStats &coreStats() const { return stats_; }
    const mem::Cache &dcache() const { return dcache_; }

    /** Emit commit-time disparity events (FalseHit/FalseMiss) for
     *  node @p node to @p sink; nullptr disables. */
    void
    setTraceSink(TraceSink *sink, NodeId node)
    {
        traceSink_ = sink;
        traceNode_ = node;
    }

    /** Number of in-flight instructions (RUU occupancy). */
    std::size_t windowSize() const { return nextFetchSeq_ - nextCommitSeq_; }

    /** In-flight DCUB lines (pending or unreleased fills); feeds the
     *  obs::Sampler dcub_depth timeline. */
    std::size_t dcubOccupancy() const { return dcub_.size(); }

  private:
    /**
     * A dependence edge: (consumer seq, source operand slot) packed as
     * (seq << 1 | slot) + 1, so 0 means "no edge". A producer's
     * consumers form an intrusive singly linked list whose links live
     * in the consumers, one per source operand.
     */
    using Edge = InstSeq;
    static Edge
    makeEdge(InstSeq seq, unsigned slot)
    {
        return (seq << 1 | slot) + 1;
    }
    static InstSeq edgeSeq(Edge e) { return (e - 1) >> 1; }
    static unsigned edgeSlot(Edge e) { return (e - 1) & 1; }

    /** An in-flight instruction (one RUU entry); fields are grouped
     *  by size so the slot packs tightly. */
    struct Uop
    {
        InstSeq seq = 0;
        Addr effAddr = invalidAddr;
        Addr lineAddr = invalidAddr;
        Cycle readyAt = cycleMax;
        Edge firstConsumer = 0;       ///< head of this uop's consumers
        /** Per source operand: the next edge in its producer's list. */
        Edge nextConsumer[2] = {0, 0};
        unsigned memSize = 0;
        unsigned waitCount = 0;       ///< outstanding register producers

        isa::OpClass cls = isa::OpClass::Misc;
        bool isLoad = false;
        bool isStore = false;
        bool issued = false;
        bool completed = false;
        bool issueHit = false;        ///< load issue-time outcome
        bool usesDcub = false;        ///< holds a DCUB user reference
    };

    /** One in-flight line in the Data Commit Update Buffer. */
    struct DcubEntry
    {
        bool pending = true;          ///< fill not yet arrived
        Cycle readyAt = cycleMax;
        bool claimed = false;         ///< matched to a canonical miss
        unsigned users = 0;           ///< LSQ references outstanding
        std::vector<InstSeq> waiters; ///< loads blocked on the fill
    };

    /** RUU slot of @p seq: the ring holds seqs nextCommitSeq_ ..
     *  nextFetchSeq_ - 1 starting at headSlot_. */
    std::size_t
    slotOf(InstSeq seq) const
    {
        std::size_t i = headSlot_ + (seq - nextCommitSeq_);
        return i >= ruu_.size() ? i - ruu_.size() : i;
    }
    Uop &
    uop(InstSeq seq)
    {
        panic_if(!inWindow(seq), "uop %llu not in window",
                 (unsigned long long)seq);
        return ruu_[slotOf(seq)];
    }
    const Uop &
    uop(InstSeq seq) const
    {
        return const_cast<OoOCore *>(this)->uop(seq);
    }
    bool
    inWindow(InstSeq seq) const
    {
        return seq >= nextCommitSeq_ && seq < nextFetchSeq_;
    }

    void processCompletions(Cycle now);
    void doCommit(Cycle now);
    void doIssue(Cycle now);
    void doFetch(Cycle now);

    void scheduleCompletion(InstSeq seq, Cycle when);
    void complete(InstSeq seq, Cycle now);
    void issueLoad(Uop &u, Cycle now);
    void commitLoad(Uop &u, Cycle now);
    void commitStore(Uop &u, Cycle now);
    void releaseDcubUser(Addr line);
    /** Queue a uop whose operands are ready: on readyList_, or on
     *  memOrderWait_ when it is a load an older store blocks. */
    void makeReady(const Uop &u);
    /** The oldest unknown-address store just issued at readyList_
     *  position @p pos: merge the waiting loads it no longer blocks
     *  into the unvisited part of the current issue pass. */
    void releaseWaitingLoads(std::size_t pos);

    /** True while an older store's address is still unknown. */
    bool loadBlockedByStore(const Uop &u) const;
    /** Load would start a new fill but all MSHR entries are taken. */
    bool mshrStalled(const Uop &u) const;
    /** Load would start a new fill but the backend refuses (hard
     *  BSHR flow control); oldest instruction bypasses. */
    bool backendStalled(const Uop &u) const;
    /** Youngest older overlapping store, or nullptr. */
    const Uop *forwardingStore(const Uop &u) const;

    CoreParams params_;
    OracleStream &stream_;
    MemBackend &backend_;
    /** Cached backend_.fetchesMayStall(): keeps the default-config
     *  issue path free of backend flow-control probes. */
    bool backendMayStall_ = false;
    TraceSink *traceSink_ = nullptr;
    NodeId traceNode_ = 0;

    /** TLB as a one-set LRU cache over page-sized "lines".
     *  @return extra walk cycles (0 on a hit or when disabled). */
    Cycle tlbPenalty(mem::Cache *tlb, Addr addr,
                     std::uint64_t &miss_stat);

    mem::Cache icache_;
    mem::Cache dcache_;
    std::unique_ptr<mem::Cache> dtlb_;
    std::unique_ptr<mem::Cache> itlb_;

    /** The RUU: a ring of ruuEntries slots (see slotOf). */
    std::vector<Uop> ruu_;
    std::size_t headSlot_ = 0;   ///< slot of nextCommitSeq_
    InstSeq nextFetchSeq_ = 0;
    InstSeq nextCommitSeq_ = 0;  ///< also the oldest in-flight seq
    std::size_t lsqOccupancy_ = 0;
    bool fetchEnded_ = false;
    bool done_ = false;

    InstSeq lastWriter_[32];     ///< seq + 1, 0 = none
    /** Issuable uops in ascending seq: operands ready, not yet
     *  issued, and (for loads) not behind an unknown-address store.
     *  A sorted vector instead of a std::set: iteration order is
     *  identical, but insertion is a cheap memmove (usually at the
     *  back, since dispatch makes the youngest uop ready) and the
     *  capacity is reused. */
    std::vector<InstSeq> readyList_;
    /** Operand-ready loads younger than the oldest unknown-address
     *  store, ascending seq. That store's issue releases a prefix. */
    std::vector<InstSeq> memOrderWait_;
    /** Scratch for releaseWaitingLoads' merge (capacity reused). */
    std::vector<InstSeq> mergeScratch_;
    /** In-window stores not yet issued (address unknown), ascending
     *  seq; vector because inserts are always at the back. */
    std::vector<InstSeq> unknownAddrStores_;
    /** In-window stores, ascending seq. */
    std::deque<InstSeq> windowStores_;
    /** Scheduled completions as a min-heap on (cycle, FIFO order) —
     *  pops in exactly the order the former map-of-vectors yielded. */
    struct CompletionEvent
    {
        Cycle when;
        std::uint64_t order;
        InstSeq seq;
    };
    struct CompletionLater
    {
        bool
        operator()(const CompletionEvent &a,
                   const CompletionEvent &b) const
        {
            return a.when != b.when ? a.when > b.when
                                    : a.order > b.order;
        }
    };
    std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                        CompletionLater>
        completionEvents_;
    std::uint64_t completionOrder_ = 0;

    std::map<Addr, DcubEntry> dcub_;

    Cycle fetchStallUntil_ = 0;
    /** Whether the latest tick() completed, committed, issued, or
     *  dispatched anything — nextEventCycle's O(1) busy-core path. */
    bool tickProgressed_ = false;
    Addr lastFetchLine_ = invalidAddr;

    CoreStats stats_;
};

} // namespace ooo
} // namespace dscalar

#endif // DSCALAR_OOO_CORE_HH
