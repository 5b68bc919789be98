/**
 * @file
 * Top-level configuration shared by the DataScalar system and the
 * baseline systems. Defaults reproduce the paper's Section 4.2
 * parameters.
 */

#ifndef DSCALAR_CORE_SIM_CONFIG_HH
#define DSCALAR_CORE_SIM_CONFIG_HH

#include <memory>
#include <string>

#include "common/types.hh"
#include "interconnect/bus.hh"
#include "interconnect/fault_model.hh"
#include "interconnect/ring.hh"
#include "mem/main_memory.hh"
#include "ooo/core.hh"

namespace dscalar {

namespace stats {
class Snapshot;
} // namespace stats

namespace core {

/** Largest node count a run may ask for. */
inline constexpr unsigned kMaxNodes = 256;

/** Global-interconnect topology for DataScalar broadcasts. */
enum class InterconnectKind : std::uint8_t {
    Bus, ///< the paper's evaluated configuration
    Ring ///< the paper's envisioned SCI-style ring (Section 4.4)
};

/** Whole-system parameters. */
struct SimConfig
{
    ooo::CoreParams core;
    mem::MainMemoryParams mem;       ///< per-node on-chip memory
    interconnect::BusParams bus;
    InterconnectKind interconnect = InterconnectKind::Bus;
    interconnect::RingParams ring;   ///< used when interconnect==Ring
    unsigned numNodes = 2;
    Cycle bshrLatency = 1;           ///< BSHR access time in cycles
    /** Architected BSHR capacity; the model is soft by default
     *  (occupancy above this is reported, not enforced); see
     *  @ref bshrHardCapacity. */
    unsigned bshrCapacity = 128;
    /**
     * Enforce bshrCapacity: a load that would allocate a BSHR waiter
     * while the bank is full stalls at issue (NACK-free flow
     * control; the oldest instruction bypasses the check so forward
     * progress is never lost), and an arriving broadcast that would
     * have to buffer in a full bank is dropped and recovered via
     * re-request. Requires rerequestTimeout > 0.
     */
    bool bshrHardCapacity = false;
    /** Interconnect fault injection (all-off defaults = the paper's
     *  perfectly reliable medium). */
    interconnect::FaultParams fault;
    /**
     * Re-request recovery: a node whose BSHR waiter has seen no data
     * for this many cycles sends MsgKind::Rerequest to the owner,
     * which re-broadcasts the line. Retries back off exponentially
     * (doubling, capped at rerequestBackoffCap) up to
     * rerequestMaxRetries attempts. 0 disables recovery (the paper's
     * protocol, where a lost broadcast is fatal).
     */
    Cycle rerequestTimeout = 0;
    /** Backoff ceiling; 0 = 8 * rerequestTimeout. */
    Cycle rerequestBackoffCap = 0;
    /** Give up (watchdog-style panic) after this many re-requests
     *  for one line. */
    unsigned rerequestMaxRetries = 16;
    /** Truncate runs after this many instructions (0 = completion). */
    InstSeq maxInsts = 0;
    /**
     * Per-node on-chip memory capacity in pages (0 = unchecked).
     * The DataScalar premise is a finite per-node memory holding
     * 1/N of the program plus every replicated page; exceeding it
     * is a configuration error.
     */
    std::size_t memCapacityPages = 0;
    /** End the run as a deadlock if no core commits for this many
     *  cycles (a protocol deadlock would otherwise hang silently). */
    Cycle watchdogCycles = 5'000'000;
    /**
     * Event-driven run loops: fast-forward the clock to the next
     * cycle at which any node, delivery, or the watchdog can act,
     * instead of stepping one cycle at a time. Simulated cycle
     * counts and event statistics are identical either way (asserted
     * by test_identity); disable to force the reference
     * single-cycle-stepping loop. See docs/PERF.md.
     */
    bool eventDriven = true;
};

/**
 * Check @p cfg against the rules of the components it configures:
 * node count, BSHR capacity, cache geometry (mem::CacheParams), a
 * fault delay ceiling whose worst per-broadcast jitter stays within
 * half the watchdog window and,
 * with @p dataScalar, the DataScalar system's own rule that a hard
 * BSHR needs re-request recovery. Messages name each parameter by
 * its request or repro key where it has one.
 * @return "" when a system can be built from @p cfg, else the first
 * rule it breaks.
 */
std::string validate(const SimConfig &cfg, bool dataScalar);

/** Aggregate outcome of one timing run. */
struct RunResult
{
    Cycle cycles = 0;
    InstSeq instructions = 0;
    double ipc = 0.0;
    /** Run-loop iterations actually executed: equals @ref cycles when
     *  single-stepping; smaller under event-driven skipping. Purely
     *  diagnostic — excluded from equivalence comparisons. */
    std::uint64_t loopTicks = 0;
    /** Full end-of-run stat snapshot (every sweep point carries one);
     *  renders as text via Snapshot::dump or JSON via
     *  stats::JsonWriter. */
    std::shared_ptr<const stats::Snapshot> stats;
    /** Non-empty when the run ended early (an unreachable owner
     *  after rerequestMaxRetries re-requests, or a deadlock), with a
     *  watchdogDump excerpt; the numbers above then describe an
     *  unfinished run. */
    std::string error;
    /** The error is a deadlock, which check::Oracle reports. */
    bool deadlock = false;
};

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_SIM_CONFIG_HH
