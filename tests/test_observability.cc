/** @file Tests for protocol tracing, stats dumps, and FU pools. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "mem/main_memory.hh"
#include "ooo/core.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace {

using namespace prog::reg;

prog::Program
streamProgram(unsigned data_pages)
{
    prog::Program p;
    Addr g = p.allocGlobal(data_pages * prog::pageSize);
    for (Addr off = 0; off < data_pages * prog::pageSize; off += 8)
        p.poke64(g + off, off);
    prog::Assembler a(p);
    a.la(s1, g);
    a.li(s0,
         static_cast<std::int32_t>(data_pages * prog::pageSize / 64));
    a.label("loop");
    a.ld(t0, s1, 0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(Trace, EventsMatchStats)
{
    prog::Program p = streamProgram(6);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    std::ostringstream trace;
    TextTraceSink sink(trace);
    sys.setTraceSink(&sink);
    sys.run();

    std::string t = trace.str();
    EXPECT_FALSE(t.empty());

    auto count = [&t](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = t.find(needle);
             pos != std::string::npos;
             pos = t.find(needle, pos + needle.size()))
            ++n;
        return n;
    };

    std::uint64_t sent = 0;
    std::uint64_t wakes = 0;
    std::uint64_t buffers = 0;
    for (NodeId n = 0; n < 2; ++n) {
        sent += sys.node(n).nodeStats().ownerBroadcasts;
        wakes += sys.node(n).bshr().bshrStats().wokenWaiters;
        buffers += sys.node(n).bshr().bshrStats().buffered;
    }
    EXPECT_EQ(count(": broadcast "), sent);
    EXPECT_EQ(count("bshr-wake"), wakes);
    EXPECT_EQ(count("bshr-buffer"), buffers);
}

TEST(Trace, CountingSinkMatchesStats)
{
    prog::Program p = streamProgram(6);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    CountingTraceSink sink;
    sys.setTraceSink(&sink);
    sys.run();

    std::uint64_t sent = 0;
    std::uint64_t wakes = 0;
    std::uint64_t buffers = 0;
    std::uint64_t false_hits = 0;
    std::uint64_t false_misses = 0;
    for (NodeId n = 0; n < 2; ++n) {
        sent += sys.node(n).nodeStats().ownerBroadcasts;
        wakes += sys.node(n).bshr().bshrStats().wokenWaiters;
        buffers += sys.node(n).bshr().bshrStats().buffered;
        false_hits += sys.node(n).core().coreStats().falseHits;
        false_misses += sys.node(n).core().coreStats().falseMisses;
    }
    EXPECT_EQ(sink.count(TraceEventKind::Broadcast), sent);
    EXPECT_EQ(sink.count(TraceEventKind::BshrWake), wakes);
    EXPECT_EQ(sink.count(TraceEventKind::BshrBuffer), buffers);
    EXPECT_EQ(sink.count(TraceEventKind::FalseHit), false_hits);
    EXPECT_EQ(sink.count(TraceEventKind::FalseMiss), false_misses);
    EXPECT_EQ(sink.count(TraceEventKind::FaultDrop), 0u);
    EXPECT_GT(sink.total(), 0u);
}

TEST(Trace, DisabledByDefault)
{
    prog::Program p = streamProgram(2);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    sys.run(); // must not crash with no trace sink
    SUCCEED();
}

TEST(Trace, TeeFansOutToEverySink)
{
    TeeTraceSink tee;
    CountingTraceSink a, b;
    tee.add(&a);
    tee.add(&b);
    tee.add(&a);      // duplicates are ignored
    tee.add(nullptr); // nulls are ignored
    tee.add(&tee);    // self-attachment is ignored
    EXPECT_EQ(tee.size(), 2u);

    tee.event({0, 1, TraceEventKind::Broadcast, 0x40});
    tee.event({1, 2, TraceEventKind::BshrWake, 0x80});
    EXPECT_EQ(a.total(), 2u);
    EXPECT_EQ(b.total(), 2u);

    tee.clear();
    EXPECT_TRUE(tee.empty());
    tee.event({0, 3, TraceEventKind::Broadcast, 0xc0});
    EXPECT_EQ(a.total(), 2u); // detached sinks see nothing
}

TEST(Trace, AddTraceSinkAccumulatesSetReplaces)
{
    prog::Program p = streamProgram(4);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    // Historically a second setTraceSink silently replaced the
    // first observer; addTraceSink attaches both.
    CountingTraceSink first, second;
    sys.setTraceSink(&first);
    sys.addTraceSink(&second);
    sys.run();
    EXPECT_GT(first.total(), 0u);
    EXPECT_EQ(first.total(), second.total());
    EXPECT_EQ(first.count(TraceEventKind::Broadcast),
              second.count(TraceEventKind::Broadcast));
}

TEST(StatsDump, ContainsAllSections)
{
    prog::Program p = streamProgram(4);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    core::RunResult r = sys.run();

    std::ostringstream os;
    sys.dumpStats(os);
    std::string dump = os.str();
    EXPECT_NE(dump.find("DataScalarSystem (2 nodes)"),
              std::string::npos);
    EXPECT_NE(dump.find("node0:"), std::string::npos);
    EXPECT_NE(dump.find("node1:"), std::string::npos);
    EXPECT_NE(dump.find("owner_broadcasts"), std::string::npos);
    EXPECT_NE(dump.find(std::to_string(r.cycles)),
              std::string::npos);
}

// --- FU pools ------------------------------------------------------

class NullBackend : public ooo::MemBackend
{
  public:
    explicit NullBackend(const mem::MainMemoryParams &p) : mem_(p) {}
    ooo::FillResult
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

Cycle
runFpKernel(const ooo::CoreParams &params)
{
    // Independent FP adds in a warm loop.
    prog::Program p;
    Addr g = p.allocGlobal(256);
    for (int i = 0; i < 8; ++i)
        p.pokeDouble(g + 8 * i, 1.0 + i);
    prog::Assembler a(p);
    a.la(s1, g);
    for (RegIndex r = t0; r <= t7; ++r)
        a.ld(r, s1, 8 * (r - t0));
    a.li(s0, 50);
    a.label("loop");
    for (int i = 0; i < 64; ++i) {
        auto rd = static_cast<RegIndex>(t0 + (i % 8));
        a.fadd(rd, rd, rd);
    }
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    ooo::OracleStream stream(p);
    NullBackend backend{mem::MainMemoryParams{}};
    ooo::OoOCore core(params, stream, backend);
    Cycle now = 0;
    while (!core.done() && now < 5'000'000) {
        core.tick(now);
        ++now;
    }
    EXPECT_TRUE(core.done());
    return now;
}

TEST(FuPools, FewerFpUnitsSlowFpCode)
{
    ooo::CoreParams wide;
    wide.fpUnits = 8;
    ooo::CoreParams narrow;
    narrow.fpUnits = 1;
    Cycle fast = runFpKernel(wide);
    Cycle slow = runFpKernel(narrow);
    EXPECT_GT(slow, fast * 2);
}

TEST(FuPools, UnlimitedEncodedAsZero)
{
    ooo::CoreParams unlimited;
    unlimited.fpUnits = 0;
    unlimited.intAluUnits = 0;
    unlimited.intMulUnits = 0;
    unlimited.memPorts = 0;
    Cycle c = runFpKernel(unlimited);
    ooo::CoreParams defaults;
    EXPECT_LE(c, runFpKernel(defaults));
}

TEST(FuPools, PoolMapping)
{
    using isa::OpClass;
    using ooo::CoreParams;
    EXPECT_EQ(CoreParams::fuPool(OpClass::IntAlu), 0u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::Ctrl), 0u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::IntMul), 1u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::IntDiv), 1u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::FpAdd), 2u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::FpDiv), 2u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::MemRead), 3u);
    EXPECT_EQ(CoreParams::fuPool(OpClass::MemWrite), 3u);
}

TEST(FuPools, MemPortsLimitLoadThroughput)
{
    // Independent cached loads: 1 port vs 4 ports.
    prog::Program p;
    Addr g = p.allocGlobal(64);
    prog::Assembler a(p);
    a.la(s1, g);
    a.lw(t0, s1, 0); // warm the line
    a.li(s0, 100);
    a.label("loop");
    for (int i = 0; i < 16; ++i)
        a.lw(static_cast<RegIndex>(t0 + (i % 8)), s1, (i % 8) * 4);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    auto run = [&](unsigned ports) {
        ooo::OracleStream stream(p);
        NullBackend backend{mem::MainMemoryParams{}};
        ooo::CoreParams params;
        params.memPorts = ports;
        ooo::OoOCore core(params, stream, backend);
        Cycle now = 0;
        while (!core.done() && now < 5'000'000) {
            core.tick(now);
            ++now;
        }
        return now;
    };
    EXPECT_GT(run(1), run(4) * 3 / 2);
}

} // namespace
} // namespace dscalar
