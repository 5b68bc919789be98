/** @file Tests for the traditional and perfect-cache baselines. */

#include <gtest/gtest.h>

#include "baseline/perfect.hh"
#include "baseline/traditional.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace baseline {
namespace {

using namespace prog::reg;
using prog::Assembler;
using prog::Program;

Program
streamProgram(unsigned data_pages)
{
    Program p;
    Addr g = p.allocGlobal(data_pages * prog::pageSize);
    for (Addr off = 0; off < data_pages * prog::pageSize; off += 32)
        p.poke64(g + off, off);

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
    a.halt();
    a.finalize();
    return p;
}

TEST(Traditional, RunsToCompletion)
{
    Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    TraditionalSystem sys(p, cfg, driver::figure7PageTable(p, 2));
    core::RunResult r = sys.run();
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(sys.core().committedSeq(), r.instructions);
}

TEST(Traditional, OffChipTrafficUsesRequestResponse)
{
    Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    TraditionalSystem sys(p, cfg, driver::figure7PageTable(p, 2));
    sys.run();

    using interconnect::MsgKind;
    // Requests and responses pair up.
    EXPECT_EQ(sys.bus().messagesOf(MsgKind::Request),
              sys.bus().messagesOf(MsgKind::Response));
    EXPECT_GT(sys.bus().messagesOf(MsgKind::Request), 0u);
    // Never broadcasts.
    EXPECT_EQ(sys.bus().messagesOf(MsgKind::Broadcast), 0u);
    // Streaming stores beyond the cache generate off-chip writes.
    EXPECT_GT(sys.offChipWrites(), 0u);
}

TEST(Traditional, MoreMemoryOnChipIsFaster)
{
    Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    // 1/2 on-chip vs 1/4 on-chip.
    TraditionalSystem half(p, cfg, driver::figure7PageTable(p, 2));
    TraditionalSystem quarter(p, cfg, driver::figure7PageTable(p, 4));
    core::RunResult rh = half.run();
    core::RunResult rq = quarter.run();
    EXPECT_EQ(rh.instructions, rq.instructions);
    EXPECT_LT(rh.cycles, rq.cycles);
}

TEST(Perfect, FasterThanTraditional)
{
    driver::RunRequest req;
    req.program = std::make_shared<const Program>(streamProgram(4));
    req.config.numNodes = 2;
    req.system = driver::SystemKind::Perfect;
    driver::RunResponse perfect = driver::runOne(req);
    req.system = driver::SystemKind::Traditional;
    driver::RunResponse trad = driver::runOne(req);
    ASSERT_TRUE(perfect.ok()) << perfect.error;
    ASSERT_TRUE(trad.ok()) << trad.error;
    EXPECT_EQ(perfect.result.instructions, trad.result.instructions);
    EXPECT_LT(perfect.result.cycles, trad.result.cycles);
}

TEST(Perfect, IpcBoundedByWidth)
{
    driver::RunRequest req;
    req.program = std::make_shared<const Program>(streamProgram(2));
    req.system = driver::SystemKind::Perfect;
    driver::RunResponse resp = driver::runOne(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_LE(resp.result.ipc, req.config.core.issueWidth);
    EXPECT_GT(resp.result.ipc, 0.5);
}

TEST(Perfect, TruncationHonoursBudget)
{
    driver::RunRequest req;
    req.program = std::make_shared<const Program>(streamProgram(4));
    req.system = driver::SystemKind::Perfect;
    req.config.maxInsts = 1234;
    driver::RunResponse resp = driver::runOne(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.result.instructions, 1234u);
}

} // namespace
} // namespace baseline
} // namespace dscalar
