/** @file
 * check::Oracle and repro-file tests: a clean configuration passes,
 * a deliberately broken configuration (fault injection with the
 * reliable-medium expectations left strict) is flagged, the shrinker
 * converges in at most two passes on an always-failing synthetic
 * case, and repro files round-trip.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/coverage.hh"
#include "check/model.hh"
#include "check/oracle.hh"
#include "check/repro.hh"
#include "core/protocol_mutation.hh"

namespace dscalar {
namespace {

TEST(FuzzOracle, CleanConfigsPass)
{
    check::Oracle oracle;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        auto failure = oracle.runTrial(seed);
        EXPECT_FALSE(failure.has_value())
            << "seed " << seed << ": "
            << check::describeConfig(failure->config) << ": "
            << failure->mismatch;
    }
    EXPECT_EQ(oracle.stats().trials, 5u);
    EXPECT_EQ(oracle.stats().configsChecked,
              5u * oracle.options().configsPerTrial);
}

TEST(FuzzOracle, CrossChecksRunExtraTimingRuns)
{
    check::Oracle oracle;
    check::ProgramGen gen(oracle.genParams());
    prog::Program p = gen.generate(11);
    check::GoldenRun golden = check::runGolden(p);

    check::TrialConfig config;
    config.crossReplay = true;
    config.crossEventDriven = true;
    EXPECT_EQ(oracle.checkConfig(p, golden, config), "");
    // One live run + one replay + one flipped-mode run.
    EXPECT_EQ(oracle.stats().timingRuns, 3u);
}

TEST(FuzzOracle, SampledConfigStreamIsPinned)
{
    // sampleConfig still makes, and throws away, the draws that once
    // chose a disk-replay differential and a tick-thread count, so
    // each seed keeps exploring the configs it explored before those
    // features were deleted. Dropping a draw shifts every later one.
    const char *expected[] = {
        "system=datascalar nodes=2 interconnect=bus "
        "dcache=1024B/4way/wa ed=1 xed=1 xreplay=0 faults=1 "
        "hardbshr=0 bshrcap=128 maxinsts=0 faultseed=697",
        "system=datascalar nodes=4 interconnect=ring "
        "dcache=1024B/4way/wa ed=1 xed=0 xreplay=0 faults=0 "
        "hardbshr=0 bshrcap=8 maxinsts=4901 faultseed=302",
        "system=datascalar nodes=3 interconnect=bus "
        "dcache=65536B/2way ed=1 xed=0 xreplay=0 faults=0 "
        "hardbshr=0 bshrcap=128 maxinsts=5822 faultseed=659",
        "system=datascalar nodes=3 interconnect=bus "
        "dcache=16384B/4way ed=0 xed=0 xreplay=0 faults=0 "
        "hardbshr=0 bshrcap=128 maxinsts=5076 faultseed=129",
    };
    check::Oracle oracle;
    Random rng(99);
    for (const char *want : expected)
        EXPECT_EQ(check::describeConfig(oracle.sampleConfig(rng)), want);
}

TEST(FuzzOracle, FlagsFaultInjectionWithoutRecovery)
{
    // The designed-in mismatch: duplicate/delay faults on the
    // interconnect while the oracle still expects a perfectly
    // reliable medium. The run completes (nothing is dropped), but
    // duplicate deliveries leave BSHR residue the strict drain
    // invariant must catch.
    check::Oracle oracle;
    check::TrialConfig config;
    config.system = driver::SystemKind::DataScalar;
    config.nodes = 3;
    config.faultsNoRecovery = true;

    bool flagged = false;
    std::string mismatch;
    for (std::uint64_t seed = 1; seed <= 5 && !flagged; ++seed) {
        mismatch = oracle.recheck(seed, oracle.genParams(), config);
        flagged = !mismatch.empty();
    }
    ASSERT_TRUE(flagged);
    EXPECT_NE(mismatch.find("not drained"), std::string::npos)
        << mismatch;
}

TEST(FuzzMutation, FuzzerAndModelEachCatchEveryPlantedBug)
{
    // The mutation-sensitivity contract: every planted single-line
    // protocol bug (core/protocol_mutation.hh) must be caught by
    // BOTH detection layers — exhaustive enumeration of the abstract
    // model AND differential fuzzing of the concrete simulator —
    // and the concrete mismatch must be the residue the bug plants.
    check::Oracle oracle;
    for (unsigned i = 1; i < core::numProtocolMutations; ++i) {
        auto m = static_cast<core::ProtocolMutation>(i);
        const char *name = core::protocolMutationName(m);

        // Abstract: a 2-node/2-line/2-episode exhaustive enumeration
        // must produce a counterexample.
        check::ModelConfig shape;
        shape.nodes = 2;
        shape.lines = 2;
        shape.episodes = 2;
        shape.mutation = m;
        check::ModelResult model = check::checkModel(shape);
        EXPECT_FALSE(model.ok)
            << name << " survived the model checker";
        EXPECT_FALSE(model.trace.empty()) << name;

        // Concrete: the oracle on a reliable medium must flag the
        // same bug within a handful of seeds.
        check::TrialConfig config;
        config.nodes = 3;
        config.mutation = m;
        bool flagged = false;
        std::string mismatch;
        for (std::uint64_t seed = 1; seed <= 10 && !flagged;
             ++seed) {
            mismatch =
                oracle.recheck(seed, oracle.genParams(), config);
            flagged = !mismatch.empty();
        }
        EXPECT_TRUE(flagged) << name << " survived the fuzzer";
        EXPECT_NE(mismatch.find("not drained"), std::string::npos)
            << name << ": " << mismatch;
        EXPECT_FALSE(oracle.lastFlightLog().empty()) << name;
    }
}

TEST(FuzzMutation, MutationRidesInConfigDescription)
{
    check::TrialConfig config;
    EXPECT_EQ(check::describeConfig(config).find("mutation"),
              std::string::npos);
    config.mutation = core::ProtocolMutation::BufferedHitKeepsData;
    EXPECT_NE(check::describeConfig(config)
                  .find("mutation=buffered-hit-keeps-data"),
              std::string::npos);
}

TEST(FuzzCoverage, OracleFeedsCoverageMap)
{
    check::CoverageMap map(3);
    check::OracleOptions oopt;
    oopt.coverage = &map;
    check::Oracle oracle(oopt);
    check::ProgramGen gen(oracle.genParams());
    prog::Program p = gen.generate(3);
    check::GoldenRun golden = check::runGolden(p);

    check::TrialConfig config; // default DataScalar run
    EXPECT_EQ(oracle.checkConfig(p, golden, config), "");
    EXPECT_GT(oracle.lastCoverageGain(), 0u);
    EXPECT_GT(map.uniqueNgrams(), 0u);
    std::uint64_t total = map.uniqueNgrams();

    // The identical run replayed contributes nothing new.
    EXPECT_EQ(oracle.checkConfig(p, golden, config), "");
    EXPECT_EQ(oracle.lastCoverageGain(), 0u);
    EXPECT_EQ(map.uniqueNgrams(), total);
}

TEST(FuzzShrink, AlwaysFailingCaseConvergesInTwoPasses)
{
    // Synthetic predicate that fails for every candidate: the
    // shrinker must pin every dimension to its floor in the first
    // pass and confirm the fixpoint in the second.
    auto always_fails = [](std::uint64_t,
                           const check::GenParams &) {
        return std::string("synthetic failure");
    };
    check::ShrinkResult res = check::shrinkParams(
        7, check::GenParams::fuzzDefault(), "synthetic failure",
        always_fails);
    EXPECT_LE(res.passes, 2u);
    EXPECT_EQ(res.mismatch, "synthetic failure");
    EXPECT_EQ(res.params.minIters, 1u);
    EXPECT_EQ(res.params.maxIters, 1u);
    EXPECT_EQ(res.params.minBlockOps, 1u);
    EXPECT_EQ(res.params.maxBlockOps, 1u);
    EXPECT_EQ(res.params.minDataPages, 1u);
    EXPECT_EQ(res.params.maxDataPages, 1u);
}

TEST(FuzzShrink, NeverFailingPredicateKeepsStartParams)
{
    auto never_fails = [](std::uint64_t, const check::GenParams &) {
        return std::string();
    };
    check::GenParams start = check::GenParams::fuzzDefault();
    check::ShrinkResult res =
        check::shrinkParams(7, start, "original", never_fails);
    EXPECT_EQ(res.passes, 1u);
    EXPECT_EQ(res.mismatch, "original");
    EXPECT_EQ(res.params.minIters, start.minIters);
    EXPECT_EQ(res.params.maxIters, start.maxIters);
}

TEST(FuzzShrink, ShrunkenFaultCaseStillFails)
{
    // End-to-end: shrink the faultsNoRecovery mismatch with the real
    // recheck predicate; whatever survives must still fail when
    // re-run from the shrunken parameters alone (the repro-replay
    // contract).
    check::Oracle oracle;
    check::TrialConfig config;
    config.nodes = 3;
    config.faultsNoRecovery = true;

    std::uint64_t failing_seed = 0;
    std::string mismatch;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        mismatch = oracle.recheck(seed, oracle.genParams(), config);
        if (!mismatch.empty()) {
            failing_seed = seed;
            break;
        }
    }
    ASSERT_NE(failing_seed, 0u);

    check::ShrinkResult res = check::shrinkParams(
        failing_seed, oracle.genParams(), mismatch,
        [&](std::uint64_t s, const check::GenParams &p) {
            return oracle.recheck(s, p, config);
        });
    EXPECT_FALSE(res.mismatch.empty());
    EXPECT_FALSE(
        oracle.recheck(failing_seed, res.params, config).empty());
}

TEST(FuzzRepro, FormatParseRoundTrip)
{
    check::ReproCase r;
    r.seed = 42;
    r.params = check::GenParams::fuzzDefault();
    r.params.minIters = r.params.maxIters = 3;
    r.config.system = driver::SystemKind::Traditional;
    r.config.nodes = 4;
    r.config.interconnect = core::InterconnectKind::Ring;
    r.config.dcacheBytes = 4096;
    r.config.dcacheAssoc = 2;
    r.config.writeAllocate = true;
    r.config.eventDriven = false;
    r.config.crossReplay = true;
    r.config.faults = true;
    r.config.bshrCapacity = 16;
    r.config.maxInsts = 12345;
    r.config.faultSeed = 99;
    r.mismatch = "output divergence: 3 bytes vs golden 5 bytes";

    std::istringstream in(check::formatRepro(r));
    check::ReproCase back;
    std::string error;
    ASSERT_TRUE(check::parseRepro(in, back, error)) << error;
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.params.minIters, 3u);
    EXPECT_EQ(back.params.maxIters, 3u);
    EXPECT_EQ(back.params.mix.pageCross, r.params.mix.pageCross);
    EXPECT_EQ(back.config.system, r.config.system);
    EXPECT_EQ(back.config.nodes, r.config.nodes);
    EXPECT_EQ(back.config.interconnect, r.config.interconnect);
    EXPECT_EQ(back.config.dcacheBytes, r.config.dcacheBytes);
    EXPECT_EQ(back.config.dcacheAssoc, r.config.dcacheAssoc);
    EXPECT_TRUE(back.config.writeAllocate);
    EXPECT_FALSE(back.config.eventDriven);
    EXPECT_TRUE(back.config.crossReplay);
    EXPECT_TRUE(back.config.faults);
    EXPECT_EQ(back.config.bshrCapacity, 16u);
    EXPECT_EQ(back.config.maxInsts, 12345u);
    EXPECT_EQ(back.config.faultSeed, 99u);
    EXPECT_EQ(back.mismatch, r.mismatch);
}

TEST(FuzzRepro, CommentedFlightLogRoundTrips)
{
    // dsfuzz appends the failing run's flight log (and, for model
    // counterexamples, the abstract event trace) to repro files as
    // '#' comment blocks. Those lines contain '=' and ':' freely and
    // must never confuse the key-value parser.
    check::ReproCase r;
    r.seed = 7;
    r.params = check::GenParams::fuzzDefault();
    r.config.mutation = core::ProtocolMutation::SquashPendingLost;
    r.mismatch = "protocol not drained: node 1 line 3";

    std::string text = check::formatRepro(r);
    EXPECT_NE(text.find("mutation = squash-pending-lost"),
              std::string::npos);
    text += "#\n"
            "# flight recorder (failing run):\n"
            "#   node 0 @128: bcast-recv line=3 from=1\n"
            "# model counterexample (2 nodes, key = value noise):\n"
            "#   1. node 1 issues episode 0 on line 3\n"
            "# not-a-key and no equals sign either\n";

    std::istringstream in(text);
    check::ReproCase back;
    std::string error;
    ASSERT_TRUE(check::parseRepro(in, back, error)) << error;
    EXPECT_EQ(back.seed, 7u);
    EXPECT_EQ(back.config.mutation,
              core::ProtocolMutation::SquashPendingLost);
    EXPECT_EQ(back.mismatch, r.mismatch);

    // A clean case must not emit the mutation key at all, so repro
    // files from ordinary campaigns keep the v1 format.
    check::ReproCase clean;
    clean.seed = 1;
    EXPECT_EQ(check::formatRepro(clean).find("mutation"),
              std::string::npos);
}

TEST(FuzzRepro, ParseRejectsMalformedInput)
{
    check::ReproCase out;
    std::string error;

    std::istringstream no_seed("nodes = 2\n");
    EXPECT_FALSE(check::parseRepro(no_seed, out, error));
    EXPECT_NE(error.find("seed"), std::string::npos);

    std::istringstream bad_key("seed = 1\nwibble = 3\n");
    EXPECT_FALSE(check::parseRepro(bad_key, out, error));
    EXPECT_NE(error.find("wibble"), std::string::npos);

    // Repro files once carried the removed trace store's directory,
    // usually empty; such a line is now an unknown key at its line.
    for (const char *line : {"trace_dir =", "trace_dir = x"}) {
        std::istringstream old_key("seed = 1\nnodes = 2\n" +
                                   std::string(line) + "\n");
        EXPECT_FALSE(check::parseRepro(old_key, out, error)) << line;
        EXPECT_NE(error.find("line 3: unknown key 'trace_dir'"),
                  std::string::npos)
            << error;
    }

    std::istringstream bad_value("seed = 1\nnodes = banana\n");
    EXPECT_FALSE(check::parseRepro(bad_value, out, error));
    EXPECT_NE(error.find("line 2: bad value 'banana' for 'nodes'"),
              std::string::npos)
        << error;

    std::istringstream bad_system("seed = 1\nsystem = vliw\n");
    EXPECT_FALSE(check::parseRepro(bad_system, out, error));
    EXPECT_NE(error.find("vliw"), std::string::npos);

    std::istringstream no_equals("seed = 1\njust words\n");
    EXPECT_FALSE(check::parseRepro(no_equals, out, error));
    EXPECT_NE(error.find("missing '='"), std::string::npos);
}

TEST(FuzzRepro, SaveLoadReplayRoundTrip)
{
    // A repro captured from a real failing case must reproduce the
    // same mismatch when loaded and re-checked from scratch.
    check::Oracle oracle;
    check::TrialConfig config;
    config.nodes = 3;
    config.faultsNoRecovery = true;

    std::uint64_t failing_seed = 0;
    std::string mismatch;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        mismatch = oracle.recheck(seed, oracle.genParams(), config);
        if (!mismatch.empty()) {
            failing_seed = seed;
            break;
        }
    }
    ASSERT_NE(failing_seed, 0u);

    check::ReproCase repro{failing_seed, oracle.genParams(), config,
                           mismatch};
    std::string path =
        ::testing::TempDir() + "/fuzz_oracle_repro.txt";
    ASSERT_TRUE(check::saveRepro(path, repro));

    check::ReproCase loaded;
    std::string error;
    ASSERT_TRUE(check::loadRepro(path, loaded, error)) << error;
    EXPECT_EQ(loaded.seed, failing_seed);
    EXPECT_EQ(loaded.mismatch, mismatch);
    EXPECT_EQ(
        oracle.recheck(loaded.seed, loaded.params, loaded.config),
        mismatch);
}

TEST(FuzzRepro, LoadReportsMissingFile)
{
    check::ReproCase out;
    std::string error;
    EXPECT_FALSE(check::loadRepro("/nonexistent/dsfuzz-repro.txt",
                                  out, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace dscalar
