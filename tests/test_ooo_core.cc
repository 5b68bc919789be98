/** @file Unit tests for the out-of-order core's timing behaviour. */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "ooo/core.hh"
#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace ooo {
namespace {

using namespace prog::reg;
using prog::Assembler;
using prog::Program;

/** All-local memory backend (everything behind one bank array). */
class LocalBackend : public MemBackend
{
  public:
    explicit LocalBackend(const mem::MainMemoryParams &p) : mem_(p) {}

    FillResult
    startLineFetch(Addr line, Cycle now) override
    {
        ++fetches;
        return {mem_.request(line, now), false};
    }
    void onUnclaimedCanonicalMiss(Addr, Cycle) override { ++repairs; }
    void writeBack(Addr, Cycle) override { ++writeBacks; }
    void storeMiss(Addr, Cycle) override { ++storeMisses; }
    Cycle
    fetchInstLine(Addr line, Cycle now) override
    {
        ++instFetches;
        return mem_.request(line, now);
    }

    std::uint64_t fetches = 0;
    std::uint64_t repairs = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t instFetches = 0;

  private:
    mem::MainMemory mem_;
};

struct CoreRun
{
    Cycle cycles = 0;
    CoreStats stats;
    std::uint64_t backendFetches = 0;
    std::uint64_t backendInstFetches = 0;
    std::uint64_t backendStoreMisses = 0;
    std::uint64_t backendWriteBacks = 0;
};

CoreRun
runCore(const Program &p, const CoreParams &params,
        InstSeq max_insts = 0)
{
    OracleStream stream(p, max_insts);
    LocalBackend backend{mem::MainMemoryParams{}};
    OoOCore core(params, stream, backend);
    Cycle now = 0;
    while (!core.done()) {
        core.tick(now);
        ++now;
        if (now > 10'000'000) {
            ADD_FAILURE() << "core did not finish";
            break;
        }
    }
    CoreRun r;
    r.cycles = now;
    r.stats = core.coreStats();
    r.backendFetches = backend.fetches;
    r.backendInstFetches = backend.instFetches;
    r.backendStoreMisses = backend.storeMisses;
    r.backendWriteBacks = backend.writeBacks;
    return r;
}

Program
independentAdds(int count)
{
    Program p;
    Assembler a(p);
    for (int i = 0; i < count; ++i)
        a.addi(static_cast<RegIndex>(1 + (i % 20)), zero, i & 0xff);
    a.halt();
    a.finalize();
    return p;
}

/** @p count independent adds per iteration, looped (warm I-cache). */
Program
loopedAdds(int count, int iters)
{
    Program p;
    Assembler a(p);
    a.li(s0, iters);
    a.label("loop");
    for (int i = 0; i < count; ++i) {
        // r1..r12 only: the loop counter lives in s0 (r16).
        a.addi(static_cast<RegIndex>(1 + (i % 12)), zero, i & 0xff);
    }
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

Program
serialChain(int count, int iters)
{
    Program p;
    Assembler a(p);
    a.li(t0, 1);
    a.li(s0, iters);
    a.label("loop");
    for (int i = 0; i < count; ++i)
        a.addi(t0, t0, 1);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(OoOCore, CommitsEveryInstruction)
{
    Program p = independentAdds(100);
    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.committed, 101u); // 100 adds + halt
}

TEST(OoOCore, WideIssueOnIndependentCode)
{
    // Looped so the I-cache warms; 8-wide should sustain above 4.
    Program p = loopedAdds(512, 16);
    CoreRun r = runCore(p, CoreParams{});
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_GT(ipc, 4.0);
}

TEST(OoOCore, SerialChainLimitsToOnePerCycle)
{
    Program p = serialChain(200, 20);
    CoreRun r = runCore(p, CoreParams{});
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_LE(ipc, 1.1);
    EXPECT_GT(ipc, 0.8);
}

TEST(OoOCore, ColdStraightLineCodeIsFetchBound)
{
    // Straight-line code touches every I-line exactly once: fetch
    // stalls on the 8-cycle banks bound IPC near
    // lineInsts / (bank + transfer) regardless of issue width.
    Program p = independentAdds(2000);
    CoreRun r = runCore(p, CoreParams{});
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_LT(ipc, 1.2);
    EXPECT_GT(ipc, 0.5);
}

TEST(OoOCore, NarrowIssueWidthCaps)
{
    Program p = independentAdds(2000);
    CoreParams narrow;
    narrow.issueWidth = 1;
    narrow.fetchWidth = 1;
    narrow.commitWidth = 1;
    CoreRun r = runCore(p, narrow);
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_LE(ipc, 1.01);
}

TEST(OoOCore, TinyRuuStillCorrect)
{
    Program p = independentAdds(500);
    CoreParams tiny;
    tiny.ruuEntries = 2;
    tiny.lsqEntries = 1;
    CoreRun r = runCore(p, tiny);
    EXPECT_EQ(r.stats.committed, 501u);
}

TEST(OoOCore, LoadsHitAfterFill)
{
    // Repeatedly load the same line: 1 cold miss, rest hits.
    Program p;
    Addr g = p.allocGlobal(64);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 16; ++i)
        a.lw(t0, s1, (i % 8) * 4);
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.loads, 16u);
    EXPECT_EQ(r.stats.loadIssueMisses, 1u);
    EXPECT_EQ(r.backendFetches, 1u);
    EXPECT_EQ(r.stats.canonicalLoadMisses, 1u);
    EXPECT_EQ(r.stats.falseHits, 0u);
    EXPECT_EQ(r.stats.falseMisses, 0u);
}

TEST(OoOCore, StoreToLoadForwarding)
{
    Program p;
    Addr g = p.allocGlobal(64);
    Assembler a(p);
    a.la(s1, g);
    a.li(t0, 42);
    a.sw(t0, s1, 0);
    a.lw(t1, s1, 0); // must forward from the store
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_GE(r.stats.forwardedLoads, 1u);
}

TEST(OoOCore, WriteNoAllocateStoreMissesGoToBackend)
{
    Program p;
    Addr g = p.allocGlobal(1024);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 8; ++i)
        a.sw(zero, s1, i * 64); // distinct lines, never loaded
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.storeCommitMisses, 8u);
    EXPECT_EQ(r.backendStoreMisses, 8u);
    EXPECT_EQ(r.backendFetches, 0u); // no allocations
}

TEST(OoOCore, WriteAllocatePolicyFetchesOnStoreMiss)
{
    Program p;
    Addr g = p.allocGlobal(1024);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 8; ++i)
        a.sw(zero, s1, i * 64);
    a.halt();
    a.finalize();

    CoreParams params;
    params.dcache.writeAllocate = true;
    CoreRun r = runCore(p, params);
    EXPECT_EQ(r.stats.storeCommitMisses, 8u);
    EXPECT_EQ(r.backendStoreMisses, 0u);
    // Fetch-for-write traffic instead.
    EXPECT_EQ(r.stats.unclaimedRepairs, 0u);
}

TEST(OoOCore, DirtyEvictionProducesWriteBack)
{
    Program p;
    // Two lines one cache-size apart: load+store the first, then
    // load the second to evict it dirty.
    Addr g = p.allocGlobal(64 * 1024);
    Assembler a(p);
    a.la(s1, g);
    a.lw(t0, s1, 0);
    a.sw(t0, s1, 0);       // dirty the line (write hit)
    a.lw(t1, s1, 16384);   // same set in a 16 KB direct-mapped L1
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.dirtyWriteBacks, 1u);
    EXPECT_EQ(r.backendWriteBacks, 1u);
}

TEST(OoOCore, ICacheMissesCounted)
{
    Program p = independentAdds(4000); // 16 KB of text
    CoreRun r = runCore(p, CoreParams{});
    EXPECT_GT(r.stats.icacheMisses, 100u);
    EXPECT_EQ(r.stats.icacheMisses, r.backendInstFetches);
}

TEST(OoOCore, PerfectDataNeverTouchesBackend)
{
    Program p;
    Addr g = p.allocGlobal(4096);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 32; ++i) {
        a.lw(t0, s1, i * 64);
        a.sw(t0, s1, i * 64);
    }
    a.halt();
    a.finalize();

    CoreParams params;
    params.perfectData = true;
    CoreRun r = runCore(p, params);
    EXPECT_EQ(r.backendFetches, 0u);
    EXPECT_EQ(r.backendStoreMisses, 0u);
    EXPECT_EQ(r.backendWriteBacks, 0u);
}

TEST(OoOCore, MshrLimitBoundsOutstandingFills)
{
    // Independent loads to distinct lines: unlimited MSHRs overlap
    // them; a single MSHR serializes the fills.
    Program p;
    Addr g = p.allocGlobal(8192);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 32; ++i)
        a.lw(static_cast<RegIndex>(1 + (i % 12)), s1, i * 64);
    a.halt();
    a.finalize();

    CoreParams unlimited;
    CoreParams one;
    one.maxOutstandingFills = 1;
    CoreRun fast = runCore(p, unlimited);
    CoreRun slow = runCore(p, one);
    EXPECT_GT(slow.cycles, fast.cycles * 2);
    EXPECT_GT(slow.stats.mshrStallEvents, 0u);
    EXPECT_EQ(slow.stats.committed, fast.stats.committed);
}

TEST(OoOCore, MshrLimitDoesNotChangeArchitecture)
{
    Program p = independentAdds(200);
    CoreParams tiny;
    tiny.maxOutstandingFills = 1;
    CoreRun r = runCore(p, tiny);
    EXPECT_EQ(r.stats.committed, 201u);
}

TEST(OoOCore, MaxInstsTruncatesRun)
{
    Program p = independentAdds(1000);
    CoreRun r = runCore(p, CoreParams{}, 50);
    EXPECT_EQ(r.stats.committed, 50u);
}

TEST(OoOCore, TruncatedRunFinishesWithSingleEntryWindow)
{
    // Regression: with a 1-entry window, the truncated stream's end
    // is only discovered by the fetch probe after the final commit;
    // the core must still report done (it used to hang).
    Program p = independentAdds(1000);
    CoreParams tiny;
    tiny.ruuEntries = 1;
    tiny.lsqEntries = 1;
    tiny.fetchWidth = 1;
    tiny.issueWidth = 1;
    tiny.commitWidth = 1;
    CoreRun r = runCore(p, tiny, 50);
    EXPECT_EQ(r.stats.committed, 50u);
}

TEST(OoOCore, FpLatenciesSlowDependentChain)
{
    // A chain of dependent fmuls should take ~fpMulLat per inst.
    Program p;
    Addr g = p.allocGlobal(16);
    Assembler a(p);
    a.la(s1, g);
    a.ld(t0, s1, 0);
    for (int i = 0; i < 200; ++i)
        a.fmul(t0, t0, t0);
    a.halt();
    a.finalize();

    CoreParams params;
    CoreRun r = runCore(p, params);
    EXPECT_GT(r.cycles, 200u * (params.fpMulLat - 1));
}

TEST(OoOCore, LoadsBehindStoreIssueInStoresCycle)
{
    // The store's data waits on an IntDiv chain, so its address stays
    // unknown long after the loads behind it are ready. They must
    // issue (and forward) in the very cycle the store issues: the
    // issue pass that issues the store goes on to issue them.
    Program p;
    Addr g = p.allocGlobal(64);
    Assembler a(p);
    a.la(s1, g);
    a.li(t1, 1);
    a.li(t0, 7);
    for (int i = 0; i < 4; ++i)
        a.div(t0, t0, t1);
    a.sw(t0, s1, 0);
    a.lw(t2, s1, 0);
    a.lw(t3, s1, 0);
    a.lw(t4, s1, 0);
    a.add(t5, t2, t3);
    a.add(t5, t5, t4);
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.cycles, 75u);
    EXPECT_EQ(r.stats.forwardedLoads, 3u);
    EXPECT_EQ(r.stats.loadIssueMisses, 0u);
    EXPECT_EQ(r.stats.committed, 14u);
}

TEST(OoOCore, OlderStoreReleasesOnlyLoadsBeforeYoungerStore)
{
    // Two stores with unknown addresses: the older one's data is four
    // divides away, the younger one's six, so every load below is
    // fetched and ready before either store issues. Issuing the older
    // store must release the loads between the two (they forward from
    // it and feed a long divide chain, so releasing them late shows
    // in the cycle count) but not the loads behind the younger store
    // (released early they would miss instead of forwarding).
    Program p;
    Addr g = p.allocGlobal(128);
    Assembler a(p);
    a.la(s1, g);
    a.li(t1, 1);
    a.li(t0, 7);
    a.li(s2, 9);
    for (int i = 0; i < 4; ++i)
        a.div(t0, t0, t1);
    for (int i = 0; i < 6; ++i)
        a.div(s2, s2, t1);
    a.sw(t0, s1, 0);
    a.lw(t2, s1, 0);
    a.lw(t3, s1, 0);
    for (int i = 0; i < 4; ++i)
        a.div(t2, t2, t1);
    a.sw(s2, s1, 64);
    a.lw(t4, s1, 64);
    a.lw(t5, s1, 64);
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.cycles, 121u);
    EXPECT_EQ(r.stats.forwardedLoads, 4u);
    EXPECT_EQ(r.stats.loadIssueMisses, 0u);
    EXPECT_EQ(r.backendFetches, 0u);
}

TEST(OoOCore, NonPowerOfTwoRuuWrapsAround)
{
    // A 37-entry RUU wraps its ring dozens of times over a loop of
    // loads, stores, divides and dependent adds.
    Program p;
    Addr g = p.allocGlobal(8192);
    Assembler a(p);
    a.la(s1, g);
    a.li(t1, 3);
    a.li(s0, 128);
    a.label("loop");
    a.lw(t0, s1, 0);
    a.div(t2, t0, t1);
    a.sw(t2, s1, 4);
    a.lw(t3, s1, 4);
    a.add(t4, t3, t0);
    a.sw(t4, s1, 128);
    a.lw(t5, s1, 256);
    a.addi(s1, s1, 32);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    CoreParams params;
    params.ruuEntries = 37;
    params.lsqEntries = 19;
    CoreRun r = runCore(p, params);
    EXPECT_EQ(r.stats.committed, 1284u);
    EXPECT_EQ(r.cycles, 2029u);
    EXPECT_EQ(r.stats.forwardedLoads, 128u);
    EXPECT_EQ(r.stats.loadIssueMisses, 136u);
    EXPECT_EQ(r.stats.loadIssueHits, 248u);
    EXPECT_EQ(r.stats.canonicalLoadMisses, 136u);
    EXPECT_EQ(r.stats.falseHits, 0u);
    EXPECT_EQ(r.stats.falseMisses, 0u);
    EXPECT_EQ(r.stats.storeCommitMisses, 4u);
}

} // namespace
} // namespace ooo
} // namespace dscalar
