/**
 * @file
 * One DataScalar node: an out-of-order core tightly coupled with a
 * slice of main memory, a BSHR bank, and the ESP protocol glue
 * (Figure 5's datapath).
 */

#ifndef DSCALAR_CORE_NODE_HH
#define DSCALAR_CORE_NODE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "common/trace.hh"
#include "core/bshr.hh"
#include "core/sim_config.hh"
#include "interconnect/message.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "ooo/core.hh"
#include "ooo/mem_backend.hh"
#include "stats/snapshot.hh"

namespace dscalar {
namespace core {

/** Sink for broadcasts a node places on the global interconnect. */
class BroadcastPort
{
  public:
    virtual ~BroadcastPort() = default;

    /**
     * Place a broadcast of @p line on the bus, available to enter
     * the broadcast queue at cycle @p ready.
     */
    virtual void broadcast(NodeId src, Addr line,
                           interconnect::MsgKind kind, Cycle ready) = 0;
};

/** Per-node protocol event counters. */
struct NodeStats
{
    std::uint64_t localLoadFills = 0;
    std::uint64_t ownerBroadcasts = 0;      ///< sent at issue time
    std::uint64_t reparativeBroadcasts = 0; ///< sent at commit (late)
    std::uint64_t remoteFetches = 0;        ///< BSHR waits + hits
    std::uint64_t localWriteBacks = 0;
    std::uint64_t droppedWriteBacks = 0;
    std::uint64_t localStoreWrites = 0;
    std::uint64_t droppedStoreWrites = 0;
    std::uint64_t instLineFills = 0;
    std::uint64_t rerequestsSent = 0;      ///< recovery retries issued
    std::uint64_t recoveryBroadcasts = 0;  ///< re-requests answered

    std::uint64_t
    totalBroadcasts() const
    {
        return ownerBroadcasts + reparativeBroadcasts;
    }
};

/** Processor + memory + BSHR node of a DataScalar system. */
class DataScalarNode : public ooo::MemBackend
{
  public:
    DataScalarNode(NodeId id, const SimConfig &config,
                   const mem::PageTable &ptable,
                   ooo::OracleStream &stream, BroadcastPort &port);

    NodeId id() const { return id_; }
    ooo::OoOCore &core() { return core_; }
    const ooo::OoOCore &core() const { return core_; }
    const Bshr &bshr() const { return bshr_; }
    const NodeStats &nodeStats() const { return stats_; }

    /** A broadcast arrived from the bus at cycle @p now. */
    void deliverBroadcast(Addr line, Cycle now);

    /** A MsgKind::Rerequest for @p line arrived at cycle @p now;
     *  the owner answers with a fresh broadcast, others ignore it. */
    void deliverRerequest(Addr line, Cycle now);

    /**
     * Re-request recovery scan: every armed line whose deadline has
     * passed sends MsgKind::Rerequest to its owner and backs off
     * exponentially. No-op unless rerequestTimeout > 0, and a single
     * compare until the earliest deadline comes due.
     * @return false once a line is still missing after
     * rerequestMaxRetries re-requests: its owner is unreachable and
     * the run cannot finish; failure() names the node, line and
     * attempt count.
     */
    bool
    checkRecovery(Cycle now)
    {
        return now < nextDue_ || scanRecovery(now);
    }

    /** Earliest cycle checkRecovery could act, or cycleMax — feeds
     *  the event-driven run loop's skip horizon. */
    Cycle nextRecoveryCycle() const { return nextDue_; }

    /** Why checkRecovery returned false ("" while it has not). */
    const std::string &failure() const { return failure_; }

    /** Emit typed protocol events to @p sink; nullptr disables. */
    void setTraceSink(TraceSink *sink);

    /** Append this node's stats as group "node<id>" to @p snap; the
     *  system's text dump and JSON export render from it. */
    void buildStats(stats::Snapshot &snap) const;

    /** Structured deadlock diagnostics: pipeline head, the first
     *  BSHR entries with ages and the first armed re-requests. */
    void watchdogDump(std::ostream &os, Cycle now) const;

    // MemBackend interface --------------------------------------------
    ooo::FillResult startLineFetch(Addr line, Cycle now) override;
    void onUnclaimedCanonicalMiss(Addr line, Cycle now) override;
    void writeBack(Addr line, Cycle now) override;
    void storeMiss(Addr line, Cycle now) override;
    Cycle fetchInstLine(Addr line, Cycle now) override;
    bool canAcceptFetch(Addr line) const override;
    bool fetchesMayStall() const override { return hardBshr_; }

  private:
    /** Re-request state for one line with a timed-out BSHR waiter. */
    struct RetryState
    {
        unsigned attempts = 0;
        Cycle nextAt = 0; ///< next re-request deadline
    };

    bool isLocal(Addr line) const;
    bool isOwner(Addr line) const;

    void traceEvent(Cycle now, TraceEventKind kind, Addr line) const;
    /** Arm or clear retry tracking after data for @p line arrived. */
    void recoverySettle(Addr line, Cycle now);
    /** checkRecovery once a deadline is due: one pass over the
     *  armed lines in ascending line order. */
    bool scanRecovery(Cycle now);
    /** Recompute nextDue_ from rerequests_. */
    void reindexRecovery();

    NodeId id_;
    const mem::PageTable &ptable_;
    BroadcastPort &port_;
    mem::MainMemory localMem_;
    Bshr bshr_;
    // Recovery configuration (0 timeout = recovery off). Initialized
    // before core_: its constructor queries fetchesMayStall().
    Cycle rerequestTimeout_ = 0;
    Cycle backoffCap_ = 0;
    unsigned maxRetries_ = 0;
    bool hardBshr_ = false;
    ooo::OoOCore core_;
    NodeStats stats_;
    TraceSink *trace_ = nullptr;
    /** Armed re-requests by line; ordered so scan order (and thus
     *  interconnect call order) is deterministic. */
    std::map<Addr, RetryState> rerequests_;
    /** The earliest nextAt in rerequests_ (cycleMax when none is
     *  armed), kept exact on every change so the run loop's
     *  per-tick checks cost one compare. */
    Cycle nextDue_ = cycleMax;
    /** Set when a line's owner proved unreachable. */
    std::string failure_;
};

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_NODE_HH
