/** @file Tests for obs::Sampler and its run-loop integration. That
 *  sampling perturbs no run, and that skipped and stepped runs sample
 *  the same timeline, is checked by tests/test_identity.cc. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "obs/sampler.hh"
#include "prog/assembler.hh"

#include "mini_json.hh"

namespace dscalar {
namespace {

using namespace prog::reg;
using obs::Sampler;

prog::Program
stridedProgram(unsigned data_pages)
{
    prog::Program p;
    Addr g = p.allocGlobal(data_pages * prog::pageSize);
    for (Addr off = 0; off < data_pages * prog::pageSize; off += 8)
        p.poke64(g + off, off);
    prog::Assembler a(p);
    a.la(s1, g);
    a.li(s0, static_cast<std::int32_t>(
                 data_pages * prog::pageSize / 64));
    a.label("loop");
    a.ld(t0, s1, 0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(SamplerUnit, LevelAndDeltaSemantics)
{
    Sampler s(10);
    std::uint64_t raw = 0;
    s.addColumn("level", Sampler::Mode::Level, [&] { return raw; });
    s.addColumn("delta", Sampler::Mode::Delta, [&] { return raw; });

    raw = 5;
    s.advance(3); // emits the cycle-0 sample only
    raw = 7;
    s.advance(25); // cycles 10 and 20 collapse into one advance
    s.advance(25); // no-op: nothing newly due

    ASSERT_EQ(s.sampleCount(), 3u);
    EXPECT_EQ(s.cycles(), (std::vector<Cycle>{0, 10, 20}));
    EXPECT_EQ(s.column(0),
              (std::vector<std::uint64_t>{5, 7, 7})); // level
    // The whole delta lands on the first due cycle of the window.
    EXPECT_EQ(s.column(1), (std::vector<std::uint64_t>{5, 2, 0}));
}

TEST(SamplerUnit, WriteJsonRoundTrips)
{
    Sampler s(4);
    std::uint64_t raw = 3;
    s.addColumn("c", Sampler::Mode::Level, [&] { return raw; });
    s.advance(9);

    std::ostringstream os;
    s.writeJson(os);
    std::string error;
    mini_json::Value doc = mini_json::parse(os.str(), error);
    ASSERT_EQ(error, "") << os.str();
    EXPECT_EQ(doc.find("interval")->number, 4);
    ASSERT_EQ(doc.find("cycles")->array.size(), 3u); // 0, 4, 8
    EXPECT_EQ(doc.find("columns")->find("c")->array[2].number, 3);
}

TEST(SamplerUnitDeath, ZeroIntervalIsFatal)
{
    EXPECT_DEATH(Sampler(0), "sample interval must be positive");
}

TEST(SamplerUnitDeath, DuplicateColumnPanics)
{
    Sampler s(10);
    s.addColumn("x", Sampler::Mode::Level, [] { return 0ull; });
    EXPECT_DEATH(
        s.addColumn("x", Sampler::Mode::Level, [] { return 0ull; }),
        "duplicate sampler column 'x'");
}

TEST(SamplerUnitDeath, AddColumnAfterStartPanics)
{
    Sampler s(10);
    s.addColumn("x", Sampler::Mode::Level, [] { return 0ull; });
    s.advance(0);
    EXPECT_DEATH(
        s.addColumn("y", Sampler::Mode::Level, [] { return 0ull; }),
        "after sampling started");
}

TEST(SamplerIntegration, RegistersExpectedColumns)
{
    prog::Program p = stridedProgram(2);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    Sampler sampler(100);
    sys.setSampler(&sampler);
    sys.run();

    std::vector<std::string> names;
    for (std::size_t i = 0; i < sampler.columnCount(); ++i)
        names.push_back(sampler.columnName(i));
    auto has = [&](const char *n) {
        return std::find(names.begin(), names.end(), n) !=
               names.end();
    };
    EXPECT_TRUE(has("node0.commit_rate"));
    EXPECT_TRUE(has("node1.bshr_occupancy"));
    EXPECT_TRUE(has("node0.dcub_depth"));
    EXPECT_TRUE(has("bus_messages"));
    EXPECT_TRUE(has("lead_node"));
}

TEST(SamplerIntegration, RunOneAcceptsSampler)
{
    driver::RunRequest req;
    req.program =
        std::make_shared<const prog::Program>(stridedProgram(2));
    req.config.numNodes = 2;
    req.sampleInterval = 100;
    driver::RunResponse resp = driver::runOne(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_GT(resp.result.cycles, 0u);

    std::string error;
    mini_json::Value doc = mini_json::parse(resp.timelineJson, error);
    ASSERT_EQ(error, "") << resp.timelineJson;
    EXPECT_EQ(doc.find("interval")->number, 100);
    const std::vector<mini_json::Value> &cycles = doc.find("cycles")->array;
    ASSERT_FALSE(cycles.empty());
    // The last emitted nominal cycle never exceeds the run length.
    EXPECT_LT(cycles.back().number, double(resp.result.cycles));
}

} // namespace
} // namespace dscalar
