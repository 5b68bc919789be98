/**
 * @file
 * The complete DataScalar machine: N processor/memory nodes running
 * the same program asynchronously (SPSD), connected by a global
 * broadcast bus. The simulator switches contexts each cycle — cycle
 * n is simulated for all nodes before cycle n+1 for any node,
 * exactly as the paper's modified SimpleScalar did (Section 4.2).
 */

#ifndef DSCALAR_CORE_DATASCALAR_HH
#define DSCALAR_CORE_DATASCALAR_HH

#include <memory>
#include <ostream>
#include <queue>
#include <vector>

#include "common/trace.hh"
#include "core/node.hh"
#include "core/timing_system.hh"
#include "interconnect/bus.hh"
#include "interconnect/fault_model.hh"
#include "mem/page_table.hh"

namespace dscalar {
namespace core {

/**
 * A multi-node DataScalar timing simulation.
 *
 * The shell's run loop (TimingSystem::run) ticks the node cores in
 * node order each simulated cycle; this class drives the bus or ring
 * between them through the loop's hooks (deliveries, re-request
 * recovery).
 * Parallelism lives across simulations (driver::runMany, `--jobs`),
 * not inside one: a window the nodes could tick apart is no wider
 * than the minimum cross-node latency, too short to pay for a thread
 * barrier (measurements in docs/PERF.md).
 *
 * Trace sinks receive per-node, core disparity, and fault events.
 * Sampler columns: per-node commit rate / BSHR occupancy / DCUB
 * depth, bus occupancy, and the leading node.
 */
class DataScalarSystem : public TimingSystem, public BroadcastPort
{
  public:
    /**
     * @param trace optional captured dynamic stream: when non-null
     *        the run replays it instead of executing the program
     *        functionally (byte-identical results, see
     *        driver::TraceCache); when null the stream captures the
     *        program a chunk at a time.
     */
    DataScalarSystem(const prog::Program &program, const SimConfig &config,
                     mem::PageTable ptable,
                     std::shared_ptr<const func::InstTrace> trace =
                         nullptr);

    const DataScalarNode &node(NodeId id) const { return *nodes_.at(id); }
    const interconnect::Bus &bus() const { return bus_; }
    const interconnect::Ring &ring() const { return ring_; }
    const interconnect::FaultModel &faultModel() const { return faults_; }

    /** Pages held in node @p id's local memory (owned + replicated),
     *  the per-node capacity an IRAM part would need. */
    std::size_t localPageCount(NodeId id) const;
    const mem::PageTable &pageTable() const { return ptable_; }

    /**
     * End-of-run protocol invariant: every broadcast was consumed —
     * no waiter, buffered line, or pending squash remains in any
     * BSHR, and no delivery is in flight.
     *
     * Holds only on a reliable medium. Injected faults and hard
     * BSHR capacity deliberately break exactly-once delivery, so
     * benign residue (a stranded pending squash, an unconsumed
     * duplicate) is expected on such runs; completion there means
     * every core committed and no waiter remains.
     */
    bool protocolDrained() const;

    /** Structured deadlock diagnostics: per-node pipeline heads,
     *  BSHR contents with ages, and in-flight messages. */
    void watchdogDump(std::ostream &os, Cycle now) const override;

    // BroadcastPort ---------------------------------------------------
    void broadcast(NodeId src, Addr line, interconnect::MsgKind kind,
                   Cycle ready) override;

  private:
    struct Delivery
    {
        Cycle at;
        std::uint64_t order; ///< tie-break for determinism
        NodeId src;
        Addr line;
        interconnect::MsgKind kind = interconnect::MsgKind::Broadcast;
        /** Single receiver (ring), or all non-src nodes (bus). */
        bool targeted = false;
        NodeId target = 0;
        bool
        operator>(const Delivery &other) const
        {
            if (at != other.at)
                return at > other.at;
            return order > other.order;
        }
    };

    void deliverDue(Cycle now, std::span<Cycle> wake) override;
    const std::string *pollRecovery(Cycle now) override;
    Cycle nextExternalEvent() const override;
    bool quiescent() const override { return deliveries_.empty(); }
    void attachTraceSink(TraceSink *sink) override;
    void addSamplerColumns(obs::Sampler &sampler) override;
    void buildStats(stats::Snapshot &snap,
                    const RunResult &r) const override;

    mem::PageTable ptable_;
    interconnect::Bus bus_;
    interconnect::Ring ring_;
    interconnect::FaultModel faults_;
    std::vector<std::unique_ptr<DataScalarNode>> nodes_;
    std::priority_queue<Delivery, std::vector<Delivery>,
                        std::greater<Delivery>>
        deliveries_;
    std::uint64_t deliveryOrder_ = 0;
};

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_DATASCALAR_HH
