/** @file
 * Integration tests for the DataScalar system: SPSD execution,
 * ESP protocol invariants, and cache correspondence.
 */

#include <gtest/gtest.h>

#include "core/datascalar.hh"
#include "core/distribution.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace core {
namespace {

using namespace prog::reg;
using prog::Assembler;
using prog::Program;

/** Streaming kernel over several pages of data with a checksum. */
Program
streamProgram(unsigned data_pages)
{
    Program p;
    p.name = "stream";
    Addr g = p.allocGlobal(data_pages * prog::pageSize);
    for (Addr off = 0; off < data_pages * prog::pageSize; off += 8)
        p.poke64(g + off, off * 3 + 1);

    Assembler a(p);
    a.la(s1, g);
    a.li(s2, 0);
    a.li(s0, static_cast<std::int32_t>(data_pages * prog::pageSize / 8));
    a.label("loop");
    a.ld(t0, s1, 0);
    a.add(s2, s2, t0);
    a.sd(s2, s1, 0);
    a.addi(s1, s1, 8);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.li(t0, 0xffff);
    a.and_(a0, s2, t0);
    a.syscall(isa::Syscall::PrintInt);
    a.syscall(isa::Syscall::Exit);
    a.halt();
    a.finalize();
    return p;
}

/** Pointer-chase kernel (dependent addresses, Section 3.2). */
Program
chaseProgram(unsigned cells, unsigned hops)
{
    Program p;
    p.name = "chase";
    Addr heap = p.allocHeap(cells * 8);
    // A shuffled cycle through all cells.
    std::vector<std::uint32_t> order(cells);
    for (std::uint32_t i = 0; i < cells; ++i)
        order[i] = i;
    std::uint64_t x = 99;
    for (std::uint32_t i = cells - 1; i > 0; --i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(order[i], order[(x >> 33) % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < cells; ++i) {
        Addr from = heap + 8ull * order[i];
        Addr to = heap + 8ull * order[(i + 1) % cells];
        p.poke64(from, to);
    }

    Assembler a(p);
    a.la(s1, heap + 8ull * order[0]);
    a.li(s0, static_cast<std::int32_t>(hops));
    a.label("loop");
    a.ld(s1, s1, 0);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.add(a0, s1, zero);
    a.syscall(isa::Syscall::PrintInt);
    a.syscall(isa::Syscall::Exit);
    a.halt();
    a.finalize();
    return p;
}

class DataScalarNodesTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DataScalarNodesTest, CompletesAndDrains)
{
    unsigned nodes = GetParam();
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    DataScalarSystem sys(p, cfg,
                         driver::figure7PageTable(p, nodes));
    RunResult r = sys.run();

    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_TRUE(sys.protocolDrained());

    // SPSD: every node committed the entire stream.
    for (NodeId n = 0; n < nodes; ++n)
        EXPECT_EQ(sys.node(n).core().committedSeq(), r.instructions);
}

TEST_P(DataScalarNodesTest, BroadcastConservation)
{
    unsigned nodes = GetParam();
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    DataScalarSystem sys(p, cfg,
                         driver::figure7PageTable(p, nodes));
    sys.run();

    // Every broadcast sent is consumed exactly once at every other
    // node: waiter wake + buffered hit + squash = total broadcasts
    // from all other nodes.
    std::uint64_t sent_total = 0;
    for (NodeId n = 0; n < nodes; ++n)
        sent_total += sys.node(n).nodeStats().totalBroadcasts();

    for (NodeId n = 0; n < nodes; ++n) {
        const auto &bs = sys.node(n).bshr().bshrStats();
        std::uint64_t consumed =
            bs.wokenWaiters + bs.bufferedHits + bs.squashes;
        std::uint64_t from_others =
            sent_total - sys.node(n).nodeStats().totalBroadcasts();
        EXPECT_EQ(consumed, from_others) << "node " << n;
        EXPECT_EQ(bs.deliveries, from_others) << "node " << n;
    }
}

TEST_P(DataScalarNodesTest, CacheCorrespondence)
{
    // The commit-updated tag arrays must be identical across nodes:
    // canonical miss counts per node are equal.
    unsigned nodes = GetParam();
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    DataScalarSystem sys(p, cfg,
                         driver::figure7PageTable(p, nodes));
    sys.run();

    const auto &ref = sys.node(0).core().coreStats();
    for (NodeId n = 1; n < nodes; ++n) {
        const auto &s = sys.node(n).core().coreStats();
        EXPECT_EQ(s.committed, ref.committed);
        EXPECT_EQ(s.canonicalLoadMisses, ref.canonicalLoadMisses);
        EXPECT_EQ(s.storeCommitMisses, ref.storeCommitMisses);
        EXPECT_EQ(s.dirtyWriteBacks, ref.dirtyWriteBacks);
    }
}

TEST_P(DataScalarNodesTest, EspSendsNoRequestsOrWrites)
{
    unsigned nodes = GetParam();
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    DataScalarSystem sys(p, cfg,
                         driver::figure7PageTable(p, nodes));
    sys.run();

    using interconnect::MsgKind;
    EXPECT_EQ(sys.bus().messagesOf(MsgKind::Request), 0u);
    EXPECT_EQ(sys.bus().messagesOf(MsgKind::Response), 0u);
    EXPECT_EQ(sys.bus().messagesOf(MsgKind::WriteBack), 0u);
    EXPECT_EQ(sys.bus().messagesOf(MsgKind::Write), 0u);
    if (nodes > 1)
        EXPECT_GT(sys.bus().messagesOf(MsgKind::Broadcast), 0u);
    else
        EXPECT_EQ(sys.bus().totalMessages(), 0u);
}

TEST_P(DataScalarNodesTest, OwnerBroadcastsMatchRemoteCanonicalMisses)
{
    unsigned nodes = GetParam();
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    DataScalarSystem sys(p, cfg,
                         driver::figure7PageTable(p, nodes));
    sys.run();

    // Total broadcasts == canonical misses to communicated lines
    // (identical at all nodes; take node 0's count of remote fetches
    // + its own broadcasts as the cross-check).
    std::uint64_t sent = 0;
    for (NodeId n = 0; n < nodes; ++n)
        sent += sys.node(n).nodeStats().totalBroadcasts();
    const auto &n0 = sys.node(0);
    const auto &bs = n0.bshr().bshrStats();
    std::uint64_t n0_consumed =
        bs.wokenWaiters + bs.bufferedHits + bs.squashes;
    EXPECT_EQ(n0.nodeStats().totalBroadcasts() + n0_consumed, sent);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DataScalarNodesTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(DataScalar, PointerChaseMatchesFunctional)
{
    Program p = chaseProgram(512, 3000);
    func::FuncSim ref(p);
    ref.run();

    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 4;
    DataScalarSystem sys(p, cfg, driver::figure7PageTable(p, 4));
    RunResult r = sys.run();
    EXPECT_EQ(r.instructions, ref.retired());
    EXPECT_TRUE(sys.protocolDrained());
    EXPECT_EQ(sys.output(), ref.output());
}

TEST(DataScalar, SingleNodeHasNoBusTraffic)
{
    Program p = streamProgram(4);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 1;
    DataScalarSystem sys(p, cfg, driver::figure7PageTable(p, 1));
    sys.run();
    EXPECT_EQ(sys.bus().totalMessages(), 0u);
}

TEST(DataScalar, MaxInstsTruncationStillDrains)
{
    Program p = streamProgram(16);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    cfg.maxInsts = 5000;
    DataScalarSystem sys(p, cfg, driver::figure7PageTable(p, 2));
    RunResult r = sys.run();
    EXPECT_EQ(r.instructions, 5000u);
    EXPECT_TRUE(sys.protocolDrained());
}

TEST(DataScalar, ReplicatedDataGeneratesNoBroadcasts)
{
    Program p = streamProgram(4);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    // Replicate everything: page table with no owned pages.
    mem::PageTable table(2);
    for (Addr page : p.touchedPages())
        table.setReplicated(page);
    DataScalarSystem sys(p, cfg, std::move(table));
    sys.run();
    EXPECT_EQ(sys.bus().totalMessages(), 0u);
}

TEST(DataScalar, CapacityCheckAcceptsFittingConfig)
{
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 4;
    cfg.maxInsts = 1000;
    mem::PageTable table = driver::figure7PageTable(p, 4);
    // Generous capacity: everything fits.
    cfg.memCapacityPages = p.touchedPages().size();
    DataScalarSystem sys(p, cfg, std::move(table));
    EXPECT_GT(sys.run().instructions, 0u);
}

TEST(DataScalarDeath, CapacityCheckRejectsOverflow)
{
    Program p = streamProgram(8);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    // Fewer pages than even the replicated text requires.
    cfg.memCapacityPages = 1;
    EXPECT_EXIT(DataScalarSystem(p, cfg,
                                 driver::figure7PageTable(p, 2)),
                ::testing::ExitedWithCode(1), "capacity");
}

TEST(DataScalar, BlockDistributionAffectsOwnershipNotResult)
{
    Program p = streamProgram(12);
    SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 4;
    DataScalarSystem s1(p, cfg, driver::figure7PageTable(p, 4, 1));
    DataScalarSystem s2(p, cfg, driver::figure7PageTable(p, 4, 4));
    RunResult r1 = s1.run();
    RunResult r2 = s2.run();
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_TRUE(s1.protocolDrained());
    EXPECT_TRUE(s2.protocolDrained());
}

} // namespace
} // namespace core
} // namespace dscalar
