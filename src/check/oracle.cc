#include "check/oracle.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "baseline/perfect.hh"
#include "baseline/traditional.hh"
#include "check/coverage.hh"
#include "common/logging.hh"
#include "core/datascalar.hh"
#include "func/func_sim.hh"
#include "obs/flight_recorder.hh"

namespace dscalar {
namespace check {

namespace {

/** Everything one timing run exposes to the equivalence checks. */
struct RunOutcome
{
    core::RunResult result;
    std::string output;
    std::string stats;          ///< DataScalar dumpStats; else empty
    std::string invariantError; ///< first violated system invariant
    std::string flightLog;      ///< flight-recorder dump (DataScalar)
};

/** Flight-recorder depth for oracle runs: enough context to read a
 *  failure, small enough to keep repro files skimmable. */
constexpr std::size_t kOracleFlightCapacity = 256;

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/** System-internal invariants of one finished DataScalar run. */
std::string
checkDataScalarInvariants(const core::DataScalarSystem &sys,
                          const core::RunResult &r,
                          const TrialConfig &config,
                          const core::SimConfig &cfg)
{
    const unsigned nodes = cfg.numNodes;

    // SPSD: every node commits the identical full stream.
    for (NodeId n = 0; n < nodes; ++n) {
        InstSeq committed = sys.node(n).core().committedSeq();
        if (committed != r.instructions)
            return format("SPSD violation: node %u committed %llu "
                          "of %llu instructions",
                          n, (unsigned long long)committed,
                          (unsigned long long)r.instructions);
    }

    // Cache correspondence: canonical behaviour identical
    // everywhere, faults or not (values come from the oracle, so
    // injected faults may perturb timing only).
    for (NodeId n = 1; n < nodes; ++n) {
        const auto &a = sys.node(0).core().coreStats();
        const auto &b = sys.node(n).core().coreStats();
        if (b.canonicalLoadMisses != a.canonicalLoadMisses ||
            b.storeCommitMisses != a.storeCommitMisses ||
            b.dirtyWriteBacks != a.dirtyWriteBacks)
            return format(
                "cache correspondence violation on node %u: "
                "canonical misses %llu/%llu, store misses "
                "%llu/%llu, write-backs %llu/%llu (vs node 0)",
                n, (unsigned long long)b.canonicalLoadMisses,
                (unsigned long long)a.canonicalLoadMisses,
                (unsigned long long)b.storeCommitMisses,
                (unsigned long long)a.storeCommitMisses,
                (unsigned long long)b.dirtyWriteBacks,
                (unsigned long long)a.dirtyWriteBacks);
    }

    const bool relaxed = config.faults || config.hardBshr;
    if (relaxed) {
        // Exactly-once delivery is deliberately broken: benign BSHR
        // residue is expected, but no waiter may be left behind.
        for (NodeId n = 0; n < nodes; ++n)
            for (const core::BshrEntryInfo &e :
                 sys.node(n).bshr().entries())
                if (e.waiters != 0)
                    return format("stranded waiter: node %u line "
                                  "%#llx has %u waiters after "
                                  "completion",
                                  n, (unsigned long long)e.line,
                                  e.waiters);
        return "";
    }

    // Reliable medium: every broadcast consumed exactly once.
    if (!sys.protocolDrained())
        return "protocol not drained: BSHR residue or in-flight "
               "delivery after completion on a reliable medium";

    // Broadcast conservation (bus only: every node sees every other
    // node's broadcasts exactly once).
    if (cfg.interconnect == core::InterconnectKind::Bus) {
        std::uint64_t sent = 0;
        for (NodeId n = 0; n < nodes; ++n)
            sent += sys.node(n).nodeStats().totalBroadcasts();
        for (NodeId n = 0; n < nodes; ++n) {
            const auto &bs = sys.node(n).bshr().bshrStats();
            std::uint64_t consumed =
                bs.wokenWaiters + bs.bufferedHits + bs.squashes;
            std::uint64_t received =
                sent - sys.node(n).nodeStats().totalBroadcasts();
            if (consumed != received)
                return format("broadcast conservation violation on "
                              "node %u: consumed %llu of %llu "
                              "received",
                              n, (unsigned long long)consumed,
                              (unsigned long long)received);
        }
    }
    return "";
}

/** Run @p cfg once (live, or replaying @p trace when non-null).
 *  When @p coverage is set, DataScalar runs fold their protocol-event
 *  history into it and add their gain to @p coverageGain. */
RunOutcome
runConfigOnce(const prog::Program &program,
              const core::SimConfig &cfg, const TrialConfig &config,
              std::shared_ptr<const func::InstTrace> trace,
              CoverageMap *coverage = nullptr,
              std::uint64_t *coverageGain = nullptr)
{
    // Plant the requested protocol bug for the timing run only; the
    // golden architectural model never goes through the BSHR.
    core::ScopedProtocolMutation plant(config.mutation);
    RunOutcome out;
    switch (config.system) {
      case driver::SystemKind::Perfect:
      case driver::SystemKind::Traditional: {
        // The baselines have no system-internal invariants to poke
        // at, so they go through the driver API like any other run.
        driver::RunRequest req;
        req.system = config.system;
        req.config = cfg; // caller may have flipped run-loop knobs
        req.program = std::shared_ptr<const prog::Program>(
            std::shared_ptr<const prog::Program>(), &program);
        req.trace = std::move(trace);
        driver::RunResponse resp = driver::runOne(req);
        out.result = std::move(resp.result);
        out.output = std::move(resp.output);
        break;
      }
      case driver::SystemKind::DataScalar: {
        core::DataScalarSystem sys(
            program, cfg,
            driver::figure7PageTable(program, cfg.numNodes),
            std::move(trace));
        obs::FlightRecorder recorder(kOracleFlightCapacity);
        sys.addTraceSink(&recorder);
        out.result = sys.run();
        out.output = sys.output();
        std::ostringstream os;
        sys.dumpStats(os);
        out.stats = os.str();
        out.invariantError =
            checkDataScalarInvariants(sys, out.result, config, cfg);
        out.flightLog = recorder.dumpString();
        if (coverage && coverageGain)
            *coverageGain += coverage->record(recorder);
        break;
      }
    }
    return out;
}

/** Architectural equivalence of one run against the golden model. */
std::string
checkAgainstGolden(const RunOutcome &out, const GoldenRun &golden,
                   const core::SimConfig &cfg)
{
    InstSeq expected =
        cfg.maxInsts ? std::min(golden.retired, cfg.maxInsts)
                     : golden.retired;
    if (out.result.instructions != expected)
        return format("retirement-stream divergence: retired %llu, "
                      "golden model retired %llu",
                      (unsigned long long)out.result.instructions,
                      (unsigned long long)expected);
    std::string want = cfg.maxInsts
                           ? golden.trace->outputPrefix(expected)
                           : golden.output;
    if (out.output != want)
        return format("output divergence: %zu bytes vs golden %zu "
                      "bytes for the executed prefix",
                      out.output.size(), want.size());
    return "";
}

/** Field-wise equality of two runs of the same configuration. */
std::string
compareOutcomes(const RunOutcome &a, const RunOutcome &b,
                const char *what)
{
    if (a.result.cycles != b.result.cycles)
        return format("%s: cycle divergence %llu vs %llu", what,
                      (unsigned long long)a.result.cycles,
                      (unsigned long long)b.result.cycles);
    if (a.result.instructions != b.result.instructions)
        return format("%s: instruction divergence %llu vs %llu",
                      what,
                      (unsigned long long)a.result.instructions,
                      (unsigned long long)b.result.instructions);
    if (a.output != b.output)
        return format("%s: output divergence", what);
    if (a.stats != b.stats)
        return format("%s: stats-dump divergence", what);
    return "";
}

} // namespace

std::string
describeConfig(const TrialConfig &c)
{
    std::ostringstream os;
    os << "system=" << driver::systemKindName(c.system)
       << " nodes=" << c.nodes << " interconnect="
       << driver::interconnectKindName(c.interconnect)
       << " dcache=" << c.dcacheBytes << "B/" << c.dcacheAssoc
       << "way" << (c.writeAllocate ? "/wa" : "")
       << " ed=" << (c.eventDriven ? 1 : 0)
       << " xed=" << (c.crossEventDriven ? 1 : 0)
       << " xreplay=" << (c.crossReplay ? 1 : 0)
       << " faults=" << (c.faults ? 1 : 0)
       << " hardbshr=" << (c.hardBshr ? 1 : 0)
       << " bshrcap=" << c.bshrCapacity
       << " maxinsts=" << c.maxInsts << " faultseed=" << c.faultSeed;
    if (c.faultsNoRecovery)
        os << " faults-no-recovery=1";
    if (c.mutation != core::ProtocolMutation::None)
        os << " mutation=" << core::protocolMutationName(c.mutation);
    return os.str();
}

core::SimConfig
toSimConfig(const TrialConfig &c)
{
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = c.nodes;
    cfg.interconnect = c.interconnect;
    cfg.core.dcache.sizeBytes = c.dcacheBytes;
    cfg.core.dcache.assoc = c.dcacheAssoc;
    cfg.core.dcache.writeAllocate = c.writeAllocate;
    cfg.eventDriven = c.eventDriven;
    cfg.maxInsts = c.maxInsts;
    cfg.bshrCapacity = c.bshrCapacity;
    if (c.faults) {
        cfg.fault.dropProb = 0.02;
        cfg.fault.dupProb = 0.02;
        cfg.fault.delayProb = 0.1;
        cfg.fault.maxDelay = 24;
        cfg.fault.seed = c.faultSeed;
        cfg.rerequestTimeout = 2'000;
    }
    if (c.faultsNoRecovery) {
        // Duplicates and jitter only — nothing is lost, so the run
        // completes, but the reliable-medium drain invariant breaks.
        cfg.fault.dupProb = 0.05;
        cfg.fault.delayProb = 0.2;
        cfg.fault.maxDelay = 40;
        cfg.fault.seed = c.faultSeed;
    }
    if (c.hardBshr) {
        cfg.bshrHardCapacity = true;
        cfg.rerequestTimeout = 2'000;
    }
    return cfg;
}

GoldenRun
runGolden(const prog::Program &program, InstSeq budget)
{
    GoldenRun g;
    g.trace = func::InstTrace::capture(program, budget);
    fatal_if(!g.trace->programHalted(),
             "generated program '%s' did not halt within %llu "
             "instructions",
             program.name.c_str(), (unsigned long long)budget);
    g.retired = g.trace->length();
    g.output = g.trace->output();
    return g;
}

Oracle::Oracle(OracleOptions options, GenParams gen)
    : options_(options), gen_(gen)
{
}

TrialConfig
Oracle::sampleConfig(Random &rng) const
{
    TrialConfig c;
    unsigned pick = rng.below(8);
    c.system = pick < 5 ? driver::SystemKind::DataScalar
               : pick < 7 ? driver::SystemKind::Traditional
                          : driver::SystemKind::Perfect;
    c.nodes = 2 + static_cast<unsigned>(rng.below(3));
    const bool ds = c.system == driver::SystemKind::DataScalar;
    if (ds && rng.chance(0.3))
        c.interconnect = core::InterconnectKind::Ring;

    static constexpr std::uint64_t sizes[] = {256, 1024, 4096,
                                              16 * 1024, 64 * 1024};
    c.dcacheBytes = sizes[rng.below(5)];
    c.dcacheAssoc = 1u << rng.below(3);
    c.writeAllocate = rng.chance(0.3);

    c.eventDriven = !rng.chance(0.25);
    c.crossEventDriven = rng.chance(0.25);
    c.crossReplay = rng.chance(0.35);
    // The draws that once chose a disk-replay differential, a
    // tick-thread count and its serial/parallel differential are
    // still made and discarded, so a seed keeps exploring the
    // configs it explored before.
    rng.chance(0.25);
    if (rng.chance(0.3))
        rng.below(3);
    rng.chance(0.25);

    if (ds) {
        c.faults = rng.chance(0.25);
        c.hardBshr = !c.faults && rng.chance(0.15);
        if (c.hardBshr)
            c.bshrCapacity = 4u << rng.below(3); // 4 / 8 / 16
        else if (rng.chance(0.1))
            c.bshrCapacity = 8; // soft overflow reporting path
    }
    c.maxInsts =
        rng.chance(0.3) ? 2'000 + rng.below(8'000) : InstSeq(0);
    c.faultSeed = 1 + rng.below(1'000);
    return c;
}

std::string
Oracle::checkConfig(const prog::Program &program,
                    const GoldenRun &golden,
                    const TrialConfig &config)
{
    ++stats_.configsChecked;
    core::SimConfig cfg = toSimConfig(config);
    lastFlightLog_.clear();
    lastCoverageGain_ = 0;

    auto run = [&](const core::SimConfig &c,
                   std::shared_ptr<const func::InstTrace> tr) {
        return runConfigOnce(program, c, config, std::move(tr),
                             options_.coverage, &lastCoverageGain_);
    };

    // Returns the mismatch unchanged, remembering the failing run's
    // flight-recorder dump for post-mortems (dsfuzz repro files).
    auto fail = [this](const RunOutcome &o, std::string msg) {
        lastFlightLog_ = o.flightLog;
        return msg;
    };

    ++stats_.timingRuns;
    RunOutcome live = run(cfg, nullptr);
    // No sampled config loses a message without recovery, so a
    // deadlock is a protocol bug, not a hopeless config.
    if (live.result.deadlock)
        return fail(live, live.result.error);
    if (!live.result.error.empty()) {
        // A hopeless config the simulator reported as such; there is
        // no finished run to hold to the invariants.
        ++stats_.expectedFailures;
        return "";
    }
    if (!live.invariantError.empty())
        return fail(live, live.invariantError);
    std::string err = checkAgainstGolden(live, golden, cfg);
    if (!err.empty())
        return fail(live, err);

    if (config.crossReplay) {
        ++stats_.timingRuns;
        RunOutcome rep = run(cfg, golden.trace);
        if (!rep.invariantError.empty())
            return fail(rep, "trace-replay run: " + rep.invariantError);
        err = checkAgainstGolden(rep, golden, cfg);
        if (!err.empty())
            return fail(rep, "trace-replay run: " + err);
        err = compareOutcomes(live, rep, "trace-replay vs live");
        if (!err.empty())
            return fail(rep, err);
    }

    if (config.crossEventDriven) {
        core::SimConfig flipped = cfg;
        flipped.eventDriven = !cfg.eventDriven;
        ++stats_.timingRuns;
        RunOutcome other = run(flipped, nullptr);
        if (!other.invariantError.empty())
            return fail(other,
                        "flipped run-loop mode: " +
                            other.invariantError);
        err = compareOutcomes(live, other,
                              cfg.eventDriven
                                  ? "event-driven vs single-stepping"
                                  : "single-stepping vs event-driven");
        if (!err.empty())
            return fail(other, err);
    }

    return "";
}

std::optional<TrialFailure>
Oracle::runTrial(std::uint64_t seed)
{
    return runTrial(seed, gen_);
}

std::optional<TrialFailure>
Oracle::runTrial(std::uint64_t seed, const GenParams &params)
{
    ++stats_.trials;
    ProgramGen gen(params);
    prog::Program program = gen.generate(seed);
    GoldenRun golden = runGolden(program, options_.goldenBudget);

    // The config-sampling stream is decoupled from the program
    // generator's stream (different mix constant), so changing the
    // op mix never reshuffles which configs a seed explores.
    Random rng(seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
    for (unsigned i = 0; i < options_.configsPerTrial; ++i) {
        TrialConfig config = sampleConfig(rng);
        std::string mismatch = checkConfig(program, golden, config);
        if (!mismatch.empty())
            return TrialFailure{seed, params, config,
                                std::move(mismatch)};
    }
    return std::nullopt;
}

std::string
Oracle::recheck(std::uint64_t seed, const GenParams &params,
                const TrialConfig &config)
{
    ProgramGen gen(params);
    prog::Program program = gen.generate(seed);
    GoldenRun golden = runGolden(program, options_.goldenBudget);
    return checkConfig(program, golden, config);
}

// -------------------------------------------------------------------
// Auto-shrinking
// -------------------------------------------------------------------

namespace {

/** One shrinkable structural dimension of GenParams. */
struct Dimension
{
    const char *name;
    unsigned GenParams::*lo;
    unsigned GenParams::*hi;
    unsigned floor;
};

constexpr Dimension kDimensions[] = {
    {"iters", &GenParams::minIters, &GenParams::maxIters, 1},
    {"blockOps", &GenParams::minBlockOps, &GenParams::maxBlockOps, 1},
    {"dataPages", &GenParams::minDataPages, &GenParams::maxDataPages,
     1},
};

/** Smaller candidates for one dimension, most aggressive first. */
std::vector<GenParams>
candidatesFor(const GenParams &params, const Dimension &dim)
{
    std::vector<GenParams> out;
    unsigned lo = params.*(dim.lo);
    unsigned hi = params.*(dim.hi);
    if (lo == dim.floor && hi == dim.floor)
        return out;
    GenParams pinned = params;
    pinned.*(dim.lo) = dim.floor;
    pinned.*(dim.hi) = dim.floor;
    out.push_back(pinned);
    if (hi > lo) {
        GenParams halved = params;
        halved.*(dim.hi) = lo + (hi - lo) / 2;
        out.push_back(halved);
    } else if (lo > dim.floor) {
        GenParams lowered = params;
        unsigned mid = dim.floor + (lo - dim.floor) / 2;
        lowered.*(dim.lo) = mid;
        lowered.*(dim.hi) = mid;
        out.push_back(lowered);
    }
    return out;
}

} // namespace

ShrinkResult
shrinkParams(std::uint64_t seed, GenParams start,
             std::string initial_mismatch,
             const FailurePredicate &still_fails)
{
    ShrinkResult res;
    res.params = start;
    res.mismatch = std::move(initial_mismatch);

    bool progress = true;
    while (progress) {
        ++res.passes;
        progress = false;
        for (const Dimension &dim : kDimensions) {
            for (const GenParams &cand :
                 candidatesFor(res.params, dim)) {
                ++res.attempts;
                std::string mismatch = still_fails(seed, cand);
                if (!mismatch.empty()) {
                    res.params = cand;
                    res.mismatch = std::move(mismatch);
                    progress = true;
                    break;
                }
            }
        }
    }
    return res;
}

} // namespace check
} // namespace dscalar
