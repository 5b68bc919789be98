/**
 * @file
 * dsfuzz — differential fuzzer and protocol model checker for the
 * DataScalar simulators.
 *
 * Fuzzing: each run generates one random program (check::ProgramGen),
 * executes it once through FuncSim as the golden architectural model,
 * then checks it through a sampled matrix of timing configurations
 * (check::Oracle): system family, node count, interconnect, cache
 * geometry, run-loop mode, trace replay, fault injection, hard BSHR
 * capacity. Any divergence from the golden stream or any violated
 * protocol invariant fails the campaign: the failing case is
 * auto-shrunk to minimal generation parameters and written as a
 * self-contained repro file. See docs/FUZZING.md.
 *
 * --coverage turns the campaign coverage-guided: every DataScalar
 * run's protocol-event history is fingerprinted as event-kind n-grams
 * (check/coverage.hh), and generation parameters that reached new
 * n-grams stay in a corpus that seeds further mutation. --coverage=
 * observe keeps the same bookkeeping on the uniform campaign, for
 * apples-to-apples coverage comparisons at an equal trial budget.
 *
 * --model switches to exhaustive model checking (check/model.hh):
 * the abstract ESP/BSHR/DCUB model is enumerated breadth-first over
 * a suite of small shapes (or one --model-* shape), and a
 * counterexample is converted into a concrete repro by ordinary
 * oracle seed search against the matching TrialConfig.
 *
 * --mutate plants a known single-line protocol bug (core/
 * protocol_mutation.hh) in both the concrete BSHR and the abstract
 * model — the sensitivity harness the mutation tests drive.
 *
 * Usage:
 *   dsfuzz [--runs=N] [--seed=S] [--time-budget=SECONDS]
 *          [--configs-per-trial=N] [--repro-out=FILE] [--quiet]
 *          [--coverage[=observe]] [--ngram=K] [--mutate=NAME]
 *   dsfuzz --model [--model-nodes=N] [--model-lines=L]
 *          [--model-episodes=E] [--model-faults] [--model-depth=D]
 *          [--mutate=NAME] [--runs=N] [--seed=S]
 *   dsfuzz --repro=FILE          replay a saved repro case
 *
 * Exit status: 0 = every trial passed / model safe (or a replayed
 * repro no longer fails), 1 = a mismatch or counterexample was found
 * (repro written / reproduced), 2 = usage or file error, 130 =
 * interrupted (SIGINT/SIGTERM).
 */

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/coverage.hh"
#include "check/model.hh"
#include "check/oracle.hh"
#include "check/program_gen.hh"
#include "check/repro.hh"
#include "common/kv.hh"

using namespace dscalar;

namespace {

enum class CoverageMode { Off, Guided, Observe };

struct Options
{
    std::uint64_t runs = 100;
    std::uint64_t seed = 1;
    double timeBudget = 0.0; ///< seconds; 0 = unlimited
    unsigned configsPerTrial = 2;
    std::string reproIn;
    std::string reproOut = "dsfuzz-repro.txt";
    bool quiet = false;

    CoverageMode coverage = CoverageMode::Off;
    unsigned ngram = 3;
    core::ProtocolMutation mutation = core::ProtocolMutation::None;

    bool model = false;
    unsigned modelNodes = 0; ///< 0 = run the default shape suite
    unsigned modelLines = 0;
    unsigned modelEpisodes = 0;
    bool modelFaults = false;
    unsigned modelDepth = 0;
};

volatile sig_atomic_t g_interrupted = 0;

void
onSignal(int)
{
    g_interrupted = 1;
}

/** Graceful stop on the first SIGINT/SIGTERM (loops poll the flag
 *  and stop between trials); a second signal falls back to the
 *  default disposition and kills the process. */
void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sa.sa_flags = SA_RESETHAND;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

bool
parseFlag(const std::string &arg, const char *name, std::string &value)
{
    std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dsfuzz [--runs=N] [--seed=S] [--time-budget=SECONDS]"
        "\n              [--configs-per-trial=N] [--repro-out=FILE]"
        "\n              [--coverage[=observe]] [--ngram=K]"
        "\n              [--mutate=NAME] [--quiet]"
        "\n       dsfuzz --model [--model-nodes=N] [--model-lines=L]"
        "\n              [--model-episodes=E] [--model-faults]"
        "\n              [--model-depth=D] [--mutate=NAME]"
        "\n       dsfuzz --repro=FILE\n");
    return 2;
}

/** Strict parse of an unsigned flag value: digits only, and no
 *  larger than unsigned holds (no silent truncation). */
bool
parseUnsigned(const std::string &value, unsigned &out)
{
    std::uint64_t v = 0;
    if (!common::kv::parseU64(value, v) ||
        v > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

double
elapsedSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Print the failing run's flight-recorder dump, if any. */
void
printFlightLog(const check::Oracle &oracle)
{
    const std::string &log = oracle.lastFlightLog();
    if (log.empty())
        return;
    std::printf("flight recorder (failing run):\n%s", log.c_str());
}

/**
 * Append free-form text to an already-written repro file as '#'
 * comment lines — the repro parser skips them, so the file stays
 * replayable while carrying its own post-mortem.
 */
void
appendComment(const std::string &path, const std::string &header,
              const std::string &text)
{
    if (text.empty())
        return;
    std::ofstream out(path, std::ios::app);
    if (!out)
        return;
    out << "#\n# " << header << ":\n";
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
        out << "# " << line << '\n';
}

/** Replay one saved repro case from scratch. */
int
replayRepro(const Options &opt)
{
    check::ReproCase repro;
    std::string error;
    if (!check::loadRepro(opt.reproIn, repro, error)) {
        std::fprintf(stderr, "dsfuzz: %s\n", error.c_str());
        return 2;
    }
    std::printf("replaying seed %llu: %s\n",
                (unsigned long long)repro.seed,
                check::describeConfig(repro.config).c_str());
    if (!repro.mismatch.empty())
        std::printf("recorded mismatch: %s\n", repro.mismatch.c_str());
    check::Oracle oracle({}, repro.params);
    std::string mismatch =
        oracle.recheck(repro.seed, repro.params, repro.config);
    if (mismatch.empty()) {
        std::printf("repro no longer fails\n");
        return 0;
    }
    std::printf("REPRODUCED: %s\n", mismatch.c_str());
    printFlightLog(oracle);
    return 1;
}

/**
 * Shrink a failing (seed, params, config) case, write the repro
 * (with the failing run's flight log, plus @p extra as a trailing
 * comment block), and report. Always returns 1.
 */
int
failAndSave(check::Oracle &oracle, std::uint64_t seed,
            const check::GenParams &params,
            const check::TrialConfig &config,
            const std::string &mismatch, const Options &opt,
            const std::string &extraHeader = "",
            const std::string &extraText = "")
{
    std::printf("FAIL seed %llu: %s\n  %s\n",
                (unsigned long long)seed,
                check::describeConfig(config).c_str(),
                mismatch.c_str());

    // Shrink the generation parameters against the failing config,
    // re-running the whole case per candidate.
    std::printf("shrinking...\n");
    check::ShrinkResult shrunk = check::shrinkParams(
        seed, params, mismatch,
        [&oracle, &config](std::uint64_t s,
                           const check::GenParams &p) {
            return oracle.recheck(s, p, config);
        });
    std::printf("shrunk in %u passes (%u attempts): iters [%u,%u] "
                "blockOps [%u,%u] dataPages [%u,%u]\n",
                shrunk.passes, shrunk.attempts,
                shrunk.params.minIters, shrunk.params.maxIters,
                shrunk.params.minBlockOps, shrunk.params.maxBlockOps,
                shrunk.params.minDataPages,
                shrunk.params.maxDataPages);

    // One confirming re-run of the shrunk case: the shrinker's final
    // pass ends on passing candidates, so this re-captures the flight
    // log that matches the minimal failing case.
    std::string confirmed = oracle.recheck(seed, shrunk.params, config);
    if (!confirmed.empty())
        shrunk.mismatch = confirmed;
    printFlightLog(oracle);

    check::ReproCase repro{seed, shrunk.params, config,
                           shrunk.mismatch};
    if (check::saveRepro(opt.reproOut, repro)) {
        appendComment(opt.reproOut, "flight recorder (failing run)",
                      oracle.lastFlightLog());
        if (!extraText.empty())
            appendComment(opt.reproOut, extraHeader, extraText);
        std::printf("repro written to %s\n", opt.reproOut.c_str());
    } else {
        std::fprintf(stderr, "dsfuzz: cannot write repro file %s\n",
                     opt.reproOut.c_str());
    }
    std::printf("final mismatch: %s\nreplay with: dsfuzz --repro=%s\n",
                shrunk.mismatch.c_str(), opt.reproOut.c_str());
    return 1;
}

// -------------------------------------------------------------------
// Model checking (--model)
// -------------------------------------------------------------------

/**
 * Convert a model counterexample into a concrete repro: seed-search
 * the oracle against the matching TrialConfig, shrink the first
 * failing seed, and carry the abstract trace in the repro file.
 */
int
modelCounterexampleToRepro(const check::ModelConfig &shape,
                           const check::ModelResult &res,
                           const Options &opt)
{
    std::string cex = check::formatCounterexample(shape, res);
    std::printf("%s", cex.c_str());

    check::TrialConfig config = check::modelTrialConfig(shape);
    check::Oracle oracle({}, check::GenParams::fuzzDefault());
    std::uint64_t budget = std::min<std::uint64_t>(opt.runs, 50);
    for (std::uint64_t i = 0; i < budget && !g_interrupted; ++i) {
        std::uint64_t seed = opt.seed + i;
        std::string mismatch =
            oracle.recheck(seed, oracle.genParams(), config);
        if (mismatch.empty())
            continue;
        std::printf("concrete reproduction found at seed %llu\n",
                    (unsigned long long)seed);
        return failAndSave(oracle, seed, oracle.genParams(), config,
                           mismatch, opt, "model counterexample",
                           cex);
    }
    std::printf("model violation stands, but no concrete seed of %llu"
                " tried reproduced it (%s)\n",
                (unsigned long long)budget,
                check::describeConfig(config).c_str());
    return 1;
}

/** The shapes --model enumerates: one --model-* shape, or the
 *  default suite. */
std::vector<check::ModelConfig>
modelShapes(const Options &opt)
{
    std::vector<check::ModelConfig> shapes;
    if (opt.modelNodes || opt.modelLines || opt.modelEpisodes) {
        check::ModelConfig cfg;
        if (opt.modelNodes)
            cfg.nodes = opt.modelNodes;
        if (opt.modelLines)
            cfg.lines = opt.modelLines;
        if (opt.modelEpisodes)
            cfg.episodes = opt.modelEpisodes;
        cfg.faults = opt.modelFaults;
        shapes.push_back(cfg);
    } else {
        // Default suite: the reliable base shape, the fault shape,
        // and a three-node shape — small enough to finish in seconds,
        // large enough that every protocol rule fires.
        check::ModelConfig reliable;
        reliable.nodes = 2;
        reliable.lines = 2;
        reliable.episodes = 3;
        shapes.push_back(reliable);
        check::ModelConfig faulty;
        faulty.nodes = 2;
        faulty.lines = 2;
        faulty.episodes = 2;
        faulty.faults = true;
        shapes.push_back(faulty);
        check::ModelConfig wide;
        wide.nodes = 3;
        wide.lines = 3;
        wide.episodes = 2;
        shapes.push_back(wide);
    }
    for (check::ModelConfig &shape : shapes) {
        shape.mutation = opt.mutation;
        shape.depthBound = opt.modelDepth;
    }
    return shapes;
}

int
runModel(const Options &opt, const std::vector<check::ModelConfig> &shapes)
{
    auto start = std::chrono::steady_clock::now();
    std::uint64_t states = 0, transitions = 0;
    for (const check::ModelConfig &shape : shapes) {
        check::ModelResult res = check::checkModel(shape);
        states += res.states;
        transitions += res.transitions;
        std::printf("model %s: %llu states, %llu transitions, "
                    "depth %u, %u scripts%s\n",
                    check::describeModelConfig(shape).c_str(),
                    (unsigned long long)res.states,
                    (unsigned long long)res.transitions, res.maxDepth,
                    res.scriptsChecked,
                    res.exhaustive ? "" : " (bounded, non-exhaustive)");
        if (!res.ok) {
            std::printf("VIOLATION: %s\n", res.violation.c_str());
            return modelCounterexampleToRepro(shape, res, opt);
        }
        if (g_interrupted) {
            std::printf("interrupted\n");
            return 130;
        }
    }
    if (!opt.quiet)
        std::printf("model OK: %zu shapes, %llu states, %llu "
                    "transitions, %.1f s\n",
                    shapes.size(), (unsigned long long)states,
                    (unsigned long long)transitions,
                    elapsedSeconds(start));
    return 0;
}

// -------------------------------------------------------------------
// Fuzzing campaigns
// -------------------------------------------------------------------

/** One corpus-mutation step: rescale one structural range or retune
 *  one op-mix weight; everything else inherited from the parent. */
check::GenParams
mutateParams(const check::GenParams &parent, Random &rng)
{
    check::GenParams p = parent;
    auto rescale = [&rng](unsigned &lo, unsigned &hi, unsigned floor,
                          unsigned cap) {
        switch (rng.below(3)) {
          case 0: // move the upper bound anywhere in [floor, cap]
            hi = floor +
                 static_cast<unsigned>(rng.below(cap - floor + 1));
            if (lo > hi)
                lo = hi;
            break;
          case 1: // move the lower bound anywhere in [floor, hi]
            lo = floor +
                 static_cast<unsigned>(rng.below(hi - floor + 1));
            break;
          default: // pin the range to one value
            lo = hi = floor + static_cast<unsigned>(
                                  rng.below(cap - floor + 1));
        }
    };
    switch (rng.below(4)) {
      case 0:
        rescale(p.minIters, p.maxIters, 1, 400);
        break;
      case 1:
        rescale(p.minBlockOps, p.maxBlockOps, 1, 80);
        break;
      case 2:
        rescale(p.minDataPages, p.maxDataPages, 1, 32);
        break;
      default: {
        unsigned *weights[] = {
            &p.mix.loadAccum,  &p.mix.storeData,
            &p.mix.loadXor,    &p.mix.branchSkip,
            &p.mix.cursorMul,  &p.mix.cursorHash,
            &p.mix.fpMix,      &p.mix.printSyscall,
            &p.mix.aliasStoreLoad, &p.mix.byteOps,
            &p.mix.pageCross};
        *weights[rng.below(11)] =
            static_cast<unsigned>(rng.below(9));
        if (p.mix.total() == 0)
            p.mix.loadAccum = 1;
      }
    }
    return p;
}

/**
 * One config-mutation step for the guided campaign: re-seed the
 * fault RNG or retune one matrix knob of a gainful parent. The
 * result is always a focused single DataScalar run — cross-check
 * re-runs are deterministic copies that can never add coverage.
 */
check::TrialConfig
mutateConfig(check::TrialConfig c, Random &rng)
{
    c.system = driver::SystemKind::DataScalar;
    c.crossReplay = false;
    c.crossEventDriven = false;
    switch (rng.below(8)) {
      case 0:
      case 1: // new fault/delay interleaving, same everything else —
              // the single most productive source of fresh n-grams
        c.faultSeed = 1 + rng.below(1'000'000);
        break;
      case 2: // force the fault paths open under a fresh seed
        c.faults = true;
        c.hardBshr = false;
        c.faultSeed = 1 + rng.below(1'000'000);
        break;
      case 3:
        c.faults = !c.faults;
        if (c.faults)
            c.hardBshr = false;
        c.faultSeed = 1 + rng.below(1'000'000);
        break;
      case 4:
        c.nodes = 2 + static_cast<unsigned>(rng.below(3));
        break;
      case 5:
        c.interconnect =
            c.interconnect == core::InterconnectKind::Bus
                ? core::InterconnectKind::Ring
                : core::InterconnectKind::Bus;
        break;
      case 6:
        c.maxInsts = rng.chance(0.5)
                         ? 1'000 + rng.below(12'000)
                         : InstSeq(0);
        break;
      default:
        c.hardBshr = !c.hardBshr;
        if (c.hardBshr) {
            c.faults = false;
            c.bshrCapacity = 4u << rng.below(3);
        } else {
            c.bshrCapacity = 128;
        }
    }
    return c;
}

int
runCampaign(const Options &opt)
{
    check::OracleOptions oopt;
    oopt.configsPerTrial = opt.configsPerTrial;

    check::CoverageMap map(opt.ngram);
    if (opt.coverage != CoverageMode::Off)
        oopt.coverage = &map;
    check::Oracle oracle(oopt, check::GenParams::fuzzDefault());

    // Sampling/mutating the campaign's own stream: decoupled from
    // the per-trial config stream (which stays a pure function of
    // the trial seed) so guided and uniform campaigns explore the
    // same config matrix.
    Random rng(opt.seed * 0x2545f4914f6cdd1dULL +
               0x9e3779b97f4a7c15ULL);
    const bool guided = opt.coverage == CoverageMode::Guided;
    // Coverage campaigns (guided AND observe) share the explicit
    // one-config-per-trial loop, so guided-vs-observe numbers compare
    // equal trial budgets run the same way.
    const bool customLoop = opt.coverage != CoverageMode::Off ||
                            opt.mutation != core::ProtocolMutation::None;
    struct Candidate
    {
        check::GenParams params;
        check::TrialConfig config;
    };
    std::vector<Candidate> corpus;

    auto start = std::chrono::steady_clock::now();
    std::uint64_t done = 0;
    for (; done < opt.runs; ++done) {
        if (g_interrupted) {
            std::printf("interrupted after %llu trials\n",
                        (unsigned long long)done);
            return 130;
        }
        if (opt.timeBudget > 0.0 &&
            elapsedSeconds(start) >= opt.timeBudget) {
            std::printf("time budget reached after %llu trials\n",
                        (unsigned long long)done);
            break;
        }
        std::uint64_t seed = opt.seed + done;

        if (customLoop) {
            // Corpus-driven loop: one explicit config per trial so
            // the coverage gain attributes to exactly one run shape.
            // Guided campaigns split trials between exploration
            // (fresh uniform draws, the observe-mode distribution)
            // and exploitation (mutating a parent that reached new
            // n-grams — in particular re-seeding its fault RNG).
            check::GenParams params = oracle.genParams();
            check::TrialConfig config = oracle.sampleConfig(rng);
            if (guided && !corpus.empty() && rng.chance(0.7)) {
                // Pick from the frontier: the newest gainers are the
                // sequences the map hasn't saturated around yet.
                std::size_t window =
                    std::min<std::size_t>(corpus.size(), 8);
                const Candidate &base =
                    corpus[corpus.size() - 1 - rng.below(window)];
                params = rng.chance(0.5)
                             ? mutateParams(base.params, rng)
                             : base.params;
                config = mutateConfig(base.config, rng);
            }
            if (opt.mutation != core::ProtocolMutation::None) {
                // Planted bugs leave BSHR residue: keep the medium
                // reliable and the system DataScalar so the strict
                // drain/conservation invariants can see it.
                config.system = driver::SystemKind::DataScalar;
                config.faults = false;
                config.hardBshr = false;
                config.faultsNoRecovery = false;
                config.mutation = opt.mutation;
            }
            std::string mismatch =
                oracle.recheck(seed, params, config);
            if (guided && oracle.lastCoverageGain() > 0)
                corpus.push_back({params, config});
            if (!mismatch.empty()) {
                int rc = failAndSave(oracle, seed, params, config,
                                     mismatch, opt);
                return rc;
            }
        } else {
            auto failure = oracle.runTrial(seed);
            if (failure)
                return failAndSave(oracle, seed, failure->params,
                                   failure->config,
                                   failure->mismatch, opt);
        }
    }

    const check::OracleStats &st = oracle.stats();
    if (opt.coverage != CoverageMode::Off)
        std::printf("coverage%s: %llu unique n-grams (k<=%u) over "
                    "%llu recorded runs, corpus %zu\n",
                    guided ? "" : " (observe)",
                    (unsigned long long)map.uniqueNgrams(), opt.ngram,
                    (unsigned long long)map.runsRecorded(),
                    corpus.size());
    if (!opt.quiet) {
        if (st.expectedFailures)
            std::printf("expected failures (unreachable owner, not "
                        "findings): %llu configs\n",
                        (unsigned long long)st.expectedFailures);
        std::printf("OK: %llu trials, %llu configs, %llu timing "
                    "runs, %.1f s\n",
                    (unsigned long long)(customLoop
                                             ? done
                                             : st.trials),
                    (unsigned long long)st.configsChecked,
                    (unsigned long long)st.timingRuns,
                    elapsedSeconds(start));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        bool ok = true; ///< false: the flag's value does not parse
        if (parseFlag(arg, "--runs", value))
            ok = common::kv::parseU64(value, opt.runs);
        else if (parseFlag(arg, "--seed", value))
            ok = common::kv::parseU64(value, opt.seed);
        else if (parseFlag(arg, "--time-budget", value))
            ok = common::kv::parseF64(value, opt.timeBudget) &&
                 opt.timeBudget >= 0.0;
        else if (parseFlag(arg, "--configs-per-trial", value))
            ok = parseUnsigned(value, opt.configsPerTrial);
        else if (parseFlag(arg, "--repro", value))
            opt.reproIn = value;
        else if (parseFlag(arg, "--repro-out", value))
            opt.reproOut = value;
        else if (arg == "--coverage")
            opt.coverage = CoverageMode::Guided;
        else if (parseFlag(arg, "--coverage", value)) {
            if (value == "observe")
                opt.coverage = CoverageMode::Observe;
            else if (value == "guided" || value.empty())
                opt.coverage = CoverageMode::Guided;
            else
                return usage();
        }
        else if (parseFlag(arg, "--ngram", value))
            ok = parseUnsigned(value, opt.ngram);
        else if (parseFlag(arg, "--mutate", value)) {
            if (!core::parseProtocolMutation(value, opt.mutation)) {
                std::fprintf(stderr,
                             "dsfuzz: unknown mutation '%s'\n",
                             value.c_str());
                return usage();
            }
        }
        else if (arg == "--model")
            opt.model = true;
        else if (parseFlag(arg, "--model-nodes", value))
            ok = parseUnsigned(value, opt.modelNodes);
        else if (parseFlag(arg, "--model-lines", value))
            ok = parseUnsigned(value, opt.modelLines);
        else if (parseFlag(arg, "--model-episodes", value))
            ok = parseUnsigned(value, opt.modelEpisodes);
        else if (arg == "--model-faults")
            opt.modelFaults = true;
        else if (parseFlag(arg, "--model-depth", value))
            ok = parseUnsigned(value, opt.modelDepth);
        else if (arg == "--quiet")
            opt.quiet = true;
        else
            return usage();
        if (!ok) {
            std::fprintf(stderr, "dsfuzz: bad value in '%s'\n",
                         arg.c_str());
            return usage();
        }
    }
    if (opt.ngram < 1 || opt.ngram > 8) {
        std::fprintf(stderr, "dsfuzz: --ngram must be 1..8\n");
        return usage();
    }
    std::vector<check::ModelConfig> shapes;
    if (opt.model)
        shapes = modelShapes(opt);
    for (const check::ModelConfig &shape : shapes)
        if (std::string error = shape.validate(); !error.empty()) {
            std::fprintf(stderr, "dsfuzz: %s\n", error.c_str());
            return usage();
        }

    if (!opt.reproIn.empty())
        return replayRepro(opt);

    installSignalHandlers();
    if (opt.model)
        return runModel(opt, shapes);
    return runCampaign(opt);
}
