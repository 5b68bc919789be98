/** @file
 * Property-based tests: randomly generated programs are run through
 * the DataScalar system at several node counts and the protocol
 * invariants (SPSD completion, broadcast conservation, cache
 * correspondence, drain) are asserted on every one.
 */

#include <gtest/gtest.h>

#include "check/program_gen.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"

namespace dscalar {
namespace {

using prog::Program;

/**
 * Random but always-terminating program via check::ProgramGen. The
 * default GenParams reproduce, draw for draw, the generator this
 * test historically owned, so every seed below generates the exact
 * program it always has (test_program_gen locks the equivalence).
 */
Program
randomProgram(std::uint64_t seed)
{
    return check::ProgramGen().generate(seed);
}

class RandomProgramTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomProgramTest, ProtocolInvariantsHold)
{
    Program p = randomProgram(GetParam());
    func::FuncSim ref(p);
    ref.run(20'000'000);
    ASSERT_TRUE(ref.halted());

    for (unsigned nodes : {2u, 3u, 4u}) {
        core::SimConfig cfg = driver::paperConfig();
        cfg.numNodes = nodes;
        core::DataScalarSystem sys(
            p, cfg, driver::figure7PageTable(p, nodes));
        core::RunResult r = sys.run();

        // SPSD: identical full commit everywhere, matching the
        // functional reference.
        EXPECT_EQ(r.instructions, ref.retired());
        EXPECT_EQ(sys.output(), ref.output());
        for (NodeId n = 0; n < nodes; ++n)
            EXPECT_EQ(sys.node(n).core().committedSeq(),
                      r.instructions);

        // Protocol drained: every broadcast consumed exactly once.
        EXPECT_TRUE(sys.protocolDrained())
            << "seed " << GetParam() << " nodes " << nodes;
        std::uint64_t sent = 0;
        for (NodeId n = 0; n < nodes; ++n)
            sent += sys.node(n).nodeStats().totalBroadcasts();
        for (NodeId n = 0; n < nodes; ++n) {
            const auto &bs = sys.node(n).bshr().bshrStats();
            EXPECT_EQ(bs.wokenWaiters + bs.bufferedHits + bs.squashes,
                      sent - sys.node(n).nodeStats().totalBroadcasts())
                << "seed " << GetParam() << " node " << n;
        }

        // Cache correspondence: canonical behaviour identical.
        for (NodeId n = 1; n < nodes; ++n) {
            EXPECT_EQ(
                sys.node(n).core().coreStats().canonicalLoadMisses,
                sys.node(0).core().coreStats().canonicalLoadMisses);
            EXPECT_EQ(sys.node(n).core().coreStats().dirtyWriteBacks,
                      sys.node(0).core().coreStats().dirtyWriteBacks);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(RandomProgramConfigs, StressUnusualGeometries)
{
    // Sweep awkward core geometries with one random program each:
    // protocol must hold regardless of window/cache sizing.
    struct Geometry
    {
        unsigned ruu;
        unsigned lsq;
        unsigned issue;
        std::uint64_t dcache;
    };
    const Geometry geoms[] = {
        {4, 2, 1, 1024},
        {16, 8, 2, 4096},
        {64, 32, 4, 8192},
        {256, 128, 8, 65536},
    };
    unsigned seed = 100;
    for (const Geometry &geom : geoms) {
        Program p = randomProgram(seed++);
        core::SimConfig cfg = driver::paperConfig();
        cfg.numNodes = 2;
        cfg.core.ruuEntries = geom.ruu;
        cfg.core.lsqEntries = geom.lsq;
        cfg.core.issueWidth = geom.issue;
        cfg.core.dcache.sizeBytes = geom.dcache;
        // Exercise the MSHR reserve path on the tightest geometry.
        cfg.core.maxOutstandingFills = geom.ruu <= 16 ? 1 : 0;
        core::DataScalarSystem sys(p, cfg,
                                   driver::figure7PageTable(p, 2));
        core::RunResult r = sys.run();
        EXPECT_GT(r.instructions, 0u);
        EXPECT_TRUE(sys.protocolDrained())
            << "ruu " << geom.ruu << " dcache " << geom.dcache;
    }
}

TEST(RandomProgramRing, InvariantsHoldOnRingInterconnect)
{
    for (std::uint64_t seed : {31u, 32u, 33u, 34u, 35u}) {
        Program p = randomProgram(seed);
        func::FuncSim ref(p);
        ref.run(20'000'000);
        for (unsigned nodes : {2u, 5u}) {
            core::SimConfig cfg = driver::paperConfig();
            cfg.numNodes = nodes;
            cfg.interconnect = core::InterconnectKind::Ring;
            core::DataScalarSystem sys(
                p, cfg, driver::figure7PageTable(p, nodes));
            core::RunResult r = sys.run();
            EXPECT_EQ(r.instructions, ref.retired());
            EXPECT_TRUE(sys.protocolDrained())
                << "seed " << seed << " nodes " << nodes;
        }
    }
}

TEST(RandomProgramWriteAllocate, InvariantsHoldUnderAllocatePolicy)
{
    // The write-allocate ablation exercises store-side episode
    // claims; the protocol must stay sound.
    for (std::uint64_t seed : {41u, 42u, 43u, 44u, 45u}) {
        Program p = randomProgram(seed);
        core::SimConfig cfg = driver::paperConfig();
        cfg.numNodes = 3;
        cfg.core.dcache.writeAllocate = true;
        core::DataScalarSystem sys(p, cfg,
                                   driver::figure7PageTable(p, 3));
        core::RunResult r = sys.run();
        EXPECT_GT(r.instructions, 0u);
        EXPECT_TRUE(sys.protocolDrained()) << "seed " << seed;
        for (NodeId n = 1; n < 3; ++n) {
            EXPECT_EQ(
                sys.node(n).core().coreStats().canonicalLoadMisses,
                sys.node(0).core().coreStats().canonicalLoadMisses);
            EXPECT_EQ(
                sys.node(n).core().coreStats().storeCommitMisses,
                sys.node(0).core().coreStats().storeCommitMisses);
        }
    }
}

TEST(RandomProgramSmallCaches, InvariantsHoldUnderHeavyConflicts)
{
    // Tiny direct-mapped caches maximize evictions between issue
    // and commit -- the false-hit path gets heavy exercise.
    for (std::uint64_t seed : {51u, 52u, 53u}) {
        Program p = randomProgram(seed);
        core::SimConfig cfg = driver::paperConfig();
        cfg.numNodes = 2;
        cfg.core.dcache.sizeBytes = 256; // 8 lines
        core::DataScalarSystem sys(p, cfg,
                                   driver::figure7PageTable(p, 2));
        core::RunResult r = sys.run();
        EXPECT_GT(r.instructions, 0u);
        EXPECT_TRUE(sys.protocolDrained()) << "seed " << seed;
        // With caches this small some false hits are expected;
        // repairs must balance squashes + claimed fetches.
        std::uint64_t repairs = 0;
        for (NodeId n = 0; n < 2; ++n)
            repairs +=
                sys.node(n).core().coreStats().unclaimedRepairs;
        (void)repairs; // drained() already proves conservation
    }
}

TEST(RandomProgramTruncation, DrainsUnderInstructionBudgets)
{
    for (std::uint64_t seed : {500u, 501u, 502u}) {
        Program p = randomProgram(seed);
        for (InstSeq budget : {1000u, 7777u, 30000u}) {
            core::SimConfig cfg = driver::paperConfig();
            cfg.numNodes = 3;
            cfg.maxInsts = budget;
            core::DataScalarSystem sys(
                p, cfg, driver::figure7PageTable(p, 3));
            core::RunResult r = sys.run();
            EXPECT_LE(r.instructions, budget);
            EXPECT_TRUE(sys.protocolDrained())
                << "seed " << seed << " budget " << budget;
        }
    }
}

} // namespace
} // namespace dscalar
