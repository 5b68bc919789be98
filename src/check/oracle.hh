/**
 * @file
 * Differential fuzzing oracle.
 *
 * One generated program is executed once through FuncSim as the
 * golden architectural model (captured as a func::InstTrace), then
 * through a sampled matrix of timing configurations — system family
 * × node count × interconnect × cache geometry × event-driven
 * on/off × trace replay on/off × fault injection / hard BSHR
 * capacity on/off — and every run is checked
 * against the golden stream and the protocol invariants:
 *
 *  - SPSD: every run retires exactly the golden instruction count
 *    (clipped by the budget) and reports the golden syscall output
 *    for the executed prefix; every DataScalar node commits the
 *    identical stream.
 *  - Drain: on a reliable medium, every broadcast is consumed —
 *    protocolDrained() plus the per-node broadcast-conservation
 *    identity. Under injected faults or hard BSHR capacity the
 *    exactly-once premise is deliberately broken, so the relaxed
 *    form is checked instead: full commit everywhere and no waiter
 *    left behind.
 *  - Cache correspondence: canonical load misses, commit-time store
 *    misses, and dirty write-backs identical on every node.
 *  - Differential cross-checks: a trace-replay run must be
 *    cycle-and-stats identical to the live run, and an
 *    event-driven run identical to the single-stepping run, for the
 *    same config.
 *
 * On failure the harness (tools/dsfuzz.cc) shrinks the generation
 * parameters to a minimal still-failing case and writes a repro
 * file (check/repro.hh).
 */

#ifndef DSCALAR_CHECK_ORACLE_HH
#define DSCALAR_CHECK_ORACLE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/program_gen.hh"
#include "common/random.hh"
#include "core/protocol_mutation.hh"
#include "core/sim_config.hh"
#include "driver/driver.hh"
#include "func/inst_trace.hh"
#include "prog/program.hh"

namespace dscalar {
namespace check {

class CoverageMap;

/** One sampled point of the configuration matrix. */
struct TrialConfig
{
    driver::SystemKind system = driver::SystemKind::DataScalar;
    unsigned nodes = 2;
    core::InterconnectKind interconnect = core::InterconnectKind::Bus;

    // Cache geometry (the timing L1D).
    std::uint64_t dcacheBytes = 16 * 1024;
    unsigned dcacheAssoc = 1;
    bool writeAllocate = false;

    bool eventDriven = true;
    /** Also run the opposite run-loop mode and require identical
     *  cycles / stats. */
    bool crossEventDriven = false;
    /** Also replay the golden trace through the same config and
     *  require identical cycles / output / stats. */
    bool crossReplay = false;
    /** Drop/dup/delay fault injection with re-request recovery
     *  armed (DataScalar only). */
    bool faults = false;
    /** Hard BSHR capacity with a small bank (DataScalar only). */
    bool hardBshr = false;
    /**
     * Testing hook, never sampled: inject duplicate/delay faults
     * but leave the oracle's reliable-medium expectations strict —
     * the shape of bug the fuzzer exists to flag (a fault config
     * whose author forgot recovery). Used by tests/test_fuzz_oracle.
     */
    bool faultsNoRecovery = false;

    unsigned bshrCapacity = 128;
    InstSeq maxInsts = 0; ///< 0 = run to completion
    std::uint64_t faultSeed = 1;

    /**
     * Testing hook, never sampled: plant a known single-line protocol
     * bug in the concrete BSHR for the duration of the timing runs
     * (core/protocol_mutation.hh). The golden architectural run is
     * unaffected — mutations live in the timing layer — so the oracle
     * is expected to flag the damage. Carried in repro files so a
     * mutation-triggered failure replays standalone.
     */
    core::ProtocolMutation mutation = core::ProtocolMutation::None;
};

/** One-line human/machine description, e.g. for repro summaries. */
std::string describeConfig(const TrialConfig &config);

/** Expand a sampled point into a full simulator configuration. */
core::SimConfig toSimConfig(const TrialConfig &config);

/** The golden architectural run every config is checked against. */
struct GoldenRun
{
    std::shared_ptr<const func::InstTrace> trace;
    InstSeq retired = 0;
    std::string output;
};

/**
 * Execute @p program once through FuncSim (capturing the trace).
 * Fatal if the program fails to halt within @p budget instructions —
 * generated programs terminate by construction.
 */
GoldenRun runGolden(const prog::Program &program,
                    InstSeq budget = 50'000'000);

/** First mismatch found by a fuzz trial. */
struct TrialFailure
{
    std::uint64_t seed = 0;
    GenParams params;
    TrialConfig config;
    std::string mismatch;
};

/** Aggregate counters for a fuzz campaign. */
struct OracleStats
{
    std::uint64_t trials = 0;
    std::uint64_t configsChecked = 0;
    std::uint64_t timingRuns = 0;
    /** Configs whose run ended in an expected failure (an owner
     *  unreachable after every re-request): not findings, and not
     *  checked further. A deadlock is a finding instead. */
    std::uint64_t expectedFailures = 0;
};

/** Matrix sampling / checking knobs. */
struct OracleOptions
{
    unsigned configsPerTrial = 2;
    InstSeq goldenBudget = 50'000'000;
    /** When non-null, every DataScalar timing run's protocol-event
     *  history is folded into this map (check/coverage.hh) and the
     *  run's coverage gain is exposed via lastCoverageGain(). Not
     *  owned; must outlive the oracle. */
    CoverageMap *coverage = nullptr;
};

/** The differential oracle: golden run + sampled config checks. */
class Oracle
{
  public:
    explicit Oracle(OracleOptions options = {},
                    GenParams gen = GenParams::fuzzDefault());

    const OracleOptions &options() const { return options_; }
    const GenParams &genParams() const { return gen_; }
    const OracleStats &stats() const { return stats_; }

    /** Draw one config from the matrix (deterministic in @p rng). */
    TrialConfig sampleConfig(Random &rng) const;

    /**
     * Check one (program, config) pair against @p golden.
     * @return "" when every invariant held, else a mismatch summary.
     */
    std::string checkConfig(const prog::Program &program,
                            const GoldenRun &golden,
                            const TrialConfig &config);

    /**
     * Run one full trial: generate the program for @p seed with
     * @p params (falling back to the constructor's GenParams),
     * execute the golden model, then check configsPerTrial sampled
     * points. @return the first failure, or nothing.
     */
    std::optional<TrialFailure> runTrial(std::uint64_t seed);
    std::optional<TrialFailure> runTrial(std::uint64_t seed,
                                         const GenParams &params);

    /**
     * Re-check one (seed, params, config) triple from scratch —
     * regenerates the program and the golden run. The predicate the
     * shrinker and repro replay are built on.
     */
    std::string recheck(std::uint64_t seed, const GenParams &params,
                        const TrialConfig &config);

    /**
     * Flight-recorder dump (obs::FlightRecorder) of the failing
     * timing run behind the most recent non-empty mismatch from
     * checkConfig/recheck — the last protocol events of each node,
     * in text-trace format. Empty when the last check passed or the
     * failing run emitted no protocol events (Perfect system).
     */
    const std::string &lastFlightLog() const { return lastFlightLog_; }

    /** New coverage n-grams contributed by the timing runs of the
     *  most recent checkConfig/recheck call (0 when OracleOptions::
     *  coverage is unset). */
    std::uint64_t lastCoverageGain() const { return lastCoverageGain_; }

  private:
    OracleOptions options_;
    GenParams gen_;
    OracleStats stats_;
    std::string lastFlightLog_;
    std::uint64_t lastCoverageGain_ = 0;
};

// -------------------------------------------------------------------
// Auto-shrinking
// -------------------------------------------------------------------

/**
 * Does (seed, params) still fail? Returns the mismatch summary, or
 * "" when the candidate passes. The fuzzer's predicate regenerates
 * the program and re-runs the failing config; tests may substitute
 * synthetic predicates.
 */
using FailurePredicate =
    std::function<std::string(std::uint64_t seed,
                              const GenParams &params)>;

/** Outcome of shrinking one failing case. */
struct ShrinkResult
{
    GenParams params;     ///< minimal still-failing parameters
    std::string mismatch; ///< mismatch of the final failing run
    unsigned passes = 0;  ///< greedy outer iterations used
    unsigned attempts = 0; ///< candidate re-runs evaluated
};

/**
 * Greedily shrink the generation parameters of a failing case:
 * for each structural dimension (outer iterations, block ops, data
 * pages) try pinning to the absolute floor, then halving the range,
 * keeping any candidate that still fails. Repeats until a full pass
 * makes no progress; an always-failing case therefore converges in
 * two passes (one that pins everything, one that confirms the
 * fixpoint).
 */
ShrinkResult shrinkParams(std::uint64_t seed, GenParams start,
                          std::string initial_mismatch,
                          const FailurePredicate &still_fails);

} // namespace check
} // namespace dscalar

#endif // DSCALAR_CHECK_ORACLE_HH
