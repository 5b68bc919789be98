/** @file Tests for the address-translation (TLB) timing model. */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "ooo/core.hh"
#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace ooo {
namespace {

using namespace prog::reg;

class LocalBackend : public MemBackend
{
  public:
    LocalBackend() : mem_(mem::MainMemoryParams{}) {}
    FillResult
    startLineFetch(Addr line, Cycle now) override
    {
        return {mem_.request(line, now), false};
    }
    void onUnclaimedCanonicalMiss(Addr, Cycle) override {}
    void writeBack(Addr, Cycle) override {}
    void storeMiss(Addr, Cycle) override {}
    Cycle
    fetchInstLine(Addr line, Cycle now) override
    {
        return mem_.request(line, now);
    }

  private:
    mem::MainMemory mem_;
};

struct CoreRunOut
{
    Cycle cycles;
    CoreStats stats;
};

CoreRunOut
run(const prog::Program &p, const CoreParams &params)
{
    OracleStream stream(p);
    LocalBackend backend;
    OoOCore core(params, stream, backend);
    Cycle now = 0;
    while (!core.done() && now < 10'000'000) {
        core.tick(now);
        ++now;
    }
    EXPECT_TRUE(core.done());
    return CoreRunOut{now, core.coreStats()};
}

/**
 * Dependent pointer chase hopping across @p pages distinct pages
 * (each page's first word points at the next page), so translation
 * latency lands on the critical path.
 */
prog::Program
pageHopper(unsigned pages, unsigned rounds)
{
    prog::Program p;
    Addr g = p.allocGlobal(pages * prog::pageSize);
    for (unsigned i = 0; i < pages; ++i) {
        Addr next = g + ((i + 1) % pages) * prog::pageSize;
        p.poke64(g + i * prog::pageSize, next);
    }
    prog::Assembler a(p);
    a.la(s1, g);
    a.li(s0, static_cast<std::int32_t>(rounds * pages));
    a.label("hop");
    a.ld(s1, s1, 0);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "hop");
    a.halt();
    a.finalize();
    return p;
}

TEST(Tlb, MissesCountedOncePerResidentPage)
{
    // 8 pages fit in a 64-entry dTLB: only cold misses.
    prog::Program p = pageHopper(8, 20);
    CoreParams params;
    CoreRunOut r = run(p, params);
    EXPECT_EQ(r.stats.dtlbMisses, 8u);
}

TEST(Tlb, ThrashingWhenFootprintExceedsTlb)
{
    // 12 pages through a 4-entry dTLB: a miss per hop, every round.
    prog::Program p = pageHopper(12, 20);
    CoreParams params;
    params.dtlbEntries = 4;
    CoreRunOut r = run(p, params);
    EXPECT_GT(r.stats.dtlbMisses, 200u);
}

TEST(Tlb, WalkLatencySlowsThrashingRuns)
{
    prog::Program p = pageHopper(12, 50);
    CoreParams small;
    small.dtlbEntries = 4;
    small.tlbWalkCycles = 12;
    CoreParams big;
    big.dtlbEntries = 64;
    big.tlbWalkCycles = 12;
    CoreRunOut slow = run(p, small);
    CoreRunOut fast = run(p, big);
    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.stats.committed, fast.stats.committed);
}

TEST(Tlb, DisabledModelHasNoMissesOrCost)
{
    prog::Program p = pageHopper(12, 50);
    CoreParams off;
    off.dtlbEntries = 0;
    off.itlbEntries = 0;
    CoreRunOut r = run(p, off);
    EXPECT_EQ(r.stats.dtlbMisses, 0u);
    EXPECT_EQ(r.stats.itlbMisses, 0u);

    CoreParams thrash;
    thrash.dtlbEntries = 4;
    EXPECT_LE(r.cycles, run(p, thrash).cycles);
}

TEST(Tlb, InstructionSideCountsTextPages)
{
    // ~3 pages of straight-line code.
    prog::Program p;
    prog::Assembler a(p);
    for (int i = 0; i < 6000; ++i)
        a.addi(t0, zero, i & 0xff);
    a.halt();
    a.finalize();

    CoreParams params;
    CoreRunOut r = run(p, params);
    EXPECT_GE(r.stats.itlbMisses, 3u);
    EXPECT_LE(r.stats.itlbMisses, 4u);
}

TEST(Tlb, PerfectDataCacheSkipsDataTranslation)
{
    prog::Program p = pageHopper(12, 10);
    CoreParams params;
    params.perfectData = true;
    CoreRunOut r = run(p, params);
    EXPECT_EQ(r.stats.dtlbMisses, 0u);
}

} // namespace
} // namespace ooo
} // namespace dscalar
