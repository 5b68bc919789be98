/**
 * @file
 * Exhaustive model checking of the ESP/BSHR/DCUB correspondence
 * protocol.
 *
 * check::ProtocolModel is a small abstract model of the protocol
 * docs/PROTOCOL.md specifies: a few nodes run a shared script of
 * canonical-miss episodes over a few communicated lines, and every
 * nondeterministic choice the concrete machine resolves by timing —
 * whether a node's issue stream fetched an episode (DCUB entry) or
 * committed a pure false hit, the interleaving of issues, commits,
 * and broadcast arrivals, and (optionally) duplicate / drop faults
 * with re-request recovery — becomes an explicit branch. The checker
 * enumerates the full state space breadth-first with a hashed
 * visited set and checks, in every reachable state, the invariants
 * the differential oracle asserts on concrete runs:
 *
 *  - broadcast conservation on a reliable medium (consumed ==
 *    received at every non-owner, consumption = woken waiters +
 *    buffered hits + squashes);
 *  - full drain on a reliable medium (no waiter, buffered line, or
 *    pending squash survives completion);
 *  - no stranded BSHR waiter under faults (residue is benign, a
 *    waiter left behind is not);
 *  - deadlock freedom (every non-final state has a successor).
 *
 * Because commits are in-order and issues per node are in-order with
 * a free fetched/not-fetched choice, the model covers every
 * fetched-pattern × delivery-interleaving the concrete out-of-order
 * cores can produce, per line episode. What is deliberately *not*
 * modeled: timing (delays are subsumed by arbitrary delivery order),
 * replicated pages (they never touch the protocol), hard-BSHR
 * capacity, and values (the architectural oracle supplies them).
 *
 * The same core::ProtocolMutation hook the concrete BSHR honours is
 * mirrored here, so a planted single-line bug is caught twice: as a
 * model counterexample (a minimal event trace, BFS guarantees
 * shortest) and as a concrete dsfuzz failure. checkModel() explores
 * every episode→line script of the configured shape; a
 * counterexample converts to a concrete check::ReproCase via
 * modelTrialConfig() + the ordinary oracle seed search (see
 * tools/dsfuzz.cc --model).
 */

#ifndef DSCALAR_CHECK_MODEL_HH
#define DSCALAR_CHECK_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "core/protocol_mutation.hh"

namespace dscalar {
namespace check {

/** Shape and bounds of one model-checking run. */
struct ModelConfig
{
    unsigned nodes = 2;    ///< 2..4 nodes (owner of line l is l % nodes)
    unsigned lines = 2;    ///< 1..4 distinct communicated lines
    unsigned episodes = 3; ///< 1..6 canonical-miss episodes per script

    /** Enable duplicate/drop fault events plus modeled re-request
     *  recovery; invariants relax exactly as the oracle's do. */
    bool faults = false;
    unsigned maxDups = 1;  ///< total duplicate-delivery budget
    unsigned maxDrops = 1; ///< total dropped-delivery budget

    /** BFS depth bound; 0 = unbounded (exhaustive enumeration). */
    unsigned depthBound = 0;
    /** Visited-state safety cap; enumeration stops (non-exhaustive)
     *  when reached. */
    std::uint64_t maxStates = 4'000'000;

    /** Planted protocol bug mirrored by the concrete BSHR. */
    core::ProtocolMutation mutation = core::ProtocolMutation::None;

    /** @return "" when the model can enumerate this shape (nodes,
     *  lines and episodes within the bounds above), else the bound
     *  it breaks. */
    std::string validate() const;
};

/** One-line summary of @p config (logs, test failure messages). */
std::string describeModelConfig(const ModelConfig &config);

/** Outcome of one enumeration (one script, or all scripts). */
struct ModelResult
{
    bool ok = true;
    /** True when the state space was fully enumerated — no depth
     *  bound or state cap cut any branch. */
    bool exhaustive = true;
    std::uint64_t states = 0;      ///< distinct states visited
    std::uint64_t transitions = 0; ///< edges explored
    unsigned maxDepth = 0;         ///< deepest state reached
    unsigned scriptsChecked = 0;   ///< scripts enumerated

    /** Empty when ok; else the violated invariant, e.g.\ "broadcast
     *  conservation violation on node 1: consumed 1 of 2 received". */
    std::string violation;
    /** Episode→line assignment of the failing script. */
    std::vector<unsigned> script;
    /** Counterexample: event names from the initial state to the
     *  violating state, shortest possible (BFS order). */
    std::vector<std::string> trace;
};

/**
 * Enumerate one script's state space. @p script maps each episode to
 * a line index (< config.lines). Stops at the first violation (its
 * trace is minimal) or when the space is exhausted / bounded out.
 */
ModelResult checkScript(const ModelConfig &config,
                        const std::vector<unsigned> &script);

/**
 * Enumerate every script of config.episodes episodes over
 * config.lines lines (lines^episodes state spaces). Aggregates
 * state/transition counts; returns at the first failing script.
 */
ModelResult checkModel(const ModelConfig &config);

/**
 * The concrete-simulator configuration matching @p config's protocol
 * shape: a DataScalar run with the same node count, the same planted
 * mutation, and fault injection + recovery when the model ran its
 * fault mode. Used to convert a model counterexample into a
 * check::ReproCase by ordinary oracle seed search (dsfuzz --model).
 */
TrialConfig modelTrialConfig(const ModelConfig &config);

/** Multi-line rendering of a counterexample: config, script, and
 *  numbered trace (empty string when @p result is ok). */
std::string formatCounterexample(const ModelConfig &config,
                                 const ModelResult &result);

} // namespace check
} // namespace dscalar

#endif // DSCALAR_CHECK_MODEL_HH
