/** @file Tests for obs::FlightRecorder, its panic hook and its dump
 *  after a run that ends in an error. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "driver/run_request.hh"
#include "obs/flight_recorder.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace {

using namespace prog::reg;

ProtocolEvent
ev(NodeId node, Cycle cycle, Addr line)
{
    return {node, cycle, TraceEventKind::Broadcast, line};
}

TEST(FlightRecorderTest, RetainsEverythingBelowCapacity)
{
    obs::FlightRecorder rec(8);
    for (Cycle c = 0; c < 5; ++c)
        rec.event(ev(0, c, 0x1000 + c));
    EXPECT_EQ(rec.totalEvents(0), 5u);
    EXPECT_EQ(rec.retainedEvents(0), 5u);
    std::string dump = rec.dumpString();
    EXPECT_NE(dump.find("@0:"), std::string::npos);
    EXPECT_NE(dump.find("@4:"), std::string::npos);
    EXPECT_EQ(dump.find("overwritten"), std::string::npos);
}

TEST(FlightRecorderTest, WrapsAroundKeepingTheNewest)
{
    obs::FlightRecorder rec(4);
    for (Cycle c = 0; c < 10; ++c)
        rec.event(ev(0, c, 0x1000));
    EXPECT_EQ(rec.totalEvents(0), 10u);
    EXPECT_EQ(rec.retainedEvents(0), 4u);

    std::string dump = rec.dumpString();
    // Events 0..5 were overwritten; 6..9 survive, oldest first.
    EXPECT_EQ(dump.find("@5:"), std::string::npos);
    std::size_t p6 = dump.find("@6:");
    std::size_t p9 = dump.find("@9:");
    ASSERT_NE(p6, std::string::npos);
    ASSERT_NE(p9, std::string::npos);
    EXPECT_LT(p6, p9);
    EXPECT_NE(dump.find("6 overwritten"), std::string::npos);
}

TEST(FlightRecorderTest, TracksNodesIndependently)
{
    obs::FlightRecorder rec(2);
    rec.event(ev(0, 1, 0xa));
    rec.event(ev(2, 7, 0xb)); // sparse node ids are fine
    rec.event(ev(2, 8, 0xc));
    rec.event(ev(2, 9, 0xd));
    EXPECT_EQ(rec.retainedEvents(0), 1u);
    EXPECT_EQ(rec.retainedEvents(1), 0u);
    EXPECT_EQ(rec.retainedEvents(2), 2u);
    EXPECT_EQ(rec.totalEvents(2), 3u);
    std::string dump = rec.dumpString();
    EXPECT_NE(dump.find("node 0:"), std::string::npos);
    EXPECT_NE(dump.find("node 2:"), std::string::npos);
}

TEST(FlightRecorderTest, EmptyRecorderDumpsHeaderOnly)
{
    obs::FlightRecorder rec(4);
    std::string dump = rec.dumpString();
    EXPECT_NE(dump.find("flight recorder"), std::string::npos);
    EXPECT_EQ(dump.find("-- node"), std::string::npos);
}

TEST(FlightRecorderDeath, PanicDumpsRecentEvents)
{
    EXPECT_DEATH(
        {
            obs::FlightRecorder rec(16);
            rec.installPanicDump();
            rec.event(ev(1, 42, 0xbeef));
            panic("forced failure");
        },
        "forced failure.*flight recorder.*node 1 @42: broadcast");
}

TEST(FlightRecorderTest, WatchdogErrorCarriesFlightLog)
{
    // Losing every transmission with recovery off deadlocks the
    // protocol (waiters starve, commits stop); the run-loop watchdog
    // ends the run as an error, and the request's armed recorder
    // dumps the dropped broadcasts to stderr.
    auto p = std::make_shared<prog::Program>();
    Addr g = p->allocGlobal(4 * prog::pageSize);
    prog::Assembler a(*p);
    a.la(s1, g);
    a.li(s0, 4 * static_cast<std::int32_t>(prog::pageSize) / 64);
    a.label("loop");
    a.ld(t0, s1, 0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    driver::RunRequest req;
    req.program = p;
    req.system = driver::SystemKind::DataScalar;
    req.config.numNodes = 2;
    req.config.watchdogCycles = 2'000;
    req.config.fault.dropProb = 1.0;
    req.config.fault.seed = 1;
    req.flightRecorder = true;
    testing::internal::CaptureStderr();
    driver::RunResponse resp = driver::runOne(req);
    std::string log = testing::internal::GetCapturedStderr();

    EXPECT_TRUE(resp.result.deadlock);
    EXPECT_NE(resp.error.find("no commit progress"), std::string::npos)
        << resp.error;
    std::size_t header = log.find("flight recorder");
    ASSERT_NE(header, std::string::npos) << log;
    EXPECT_NE(log.find("fault-drop", header), std::string::npos) << log;
}

TEST(FlightRecorderTest, HookRemovedOnDestruction)
{
    {
        obs::FlightRecorder rec(4);
        rec.installPanicDump();
        rec.installPanicDump(); // idempotent
    }
    // The recorder is gone; a later panic must not touch it. The
    // death test passes only if the message prints and the process
    // aborts cleanly (a dangling hook would crash differently).
    EXPECT_DEATH(panic("after recorder destruction"),
                 "after recorder destruction");
}

} // namespace
} // namespace dscalar
