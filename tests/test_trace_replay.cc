/**
 * @file
 * Replay-identity tests: a timing run that replays a captured trace
 * must report exactly what a fresh execution-driven run reports —
 * every system family, both event-driven modes, down to the full
 * stats dump. This is the contract that lets driver::TraceCache
 * substitute replay for execution everywhere (loopTicks is the one
 * diagnostic field excluded from equivalence; see core::RunResult).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "baseline/perfect.hh"
#include "baseline/traditional.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "func/inst_trace.hh"
#include "prog/assembler.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace driver {
namespace {

constexpr InstSeq kBudget = 8000;

std::shared_ptr<const prog::Program>
testProgram()
{
    static std::shared_ptr<const prog::Program> p =
        std::make_shared<const prog::Program>(
            workloads::findWorkload("compress_s").build(1));
    return p;
}

std::shared_ptr<const func::InstTrace>
testTrace()
{
    static std::shared_ptr<const func::InstTrace> trace =
        func::InstTrace::capture(*testProgram(), kBudget);
    return trace;
}

core::SimConfig
testConfig(bool event_driven)
{
    core::SimConfig cfg = paperConfig();
    cfg.maxInsts = kBudget;
    cfg.numNodes = 2;
    cfg.eventDriven = event_driven;
    return cfg;
}

TEST(TraceReplay, RunResultsMatchEverySystemAndMode)
{
    RunRequest req;
    req.program = testProgram();
    for (bool ed : {true, false}) {
        req.config = testConfig(ed);
        for (SystemKind kind :
             {SystemKind::Perfect, SystemKind::DataScalar,
              SystemKind::Traditional}) {
            SCOPED_TRACE(std::string(systemKindName(kind)) +
                         (ed ? " event-driven" : " cycle-stepped"));
            req.system = kind;
            req.trace = nullptr;
            RunResponse fresh = runOne(req);
            req.trace = testTrace();
            RunResponse replay = runOne(req);
            ASSERT_TRUE(fresh.ok()) << fresh.error;
            ASSERT_TRUE(replay.ok()) << replay.error;
            EXPECT_EQ(replay.result.cycles, fresh.result.cycles);
            EXPECT_EQ(replay.result.instructions,
                      fresh.result.instructions);
            EXPECT_EQ(replay.result.ipc, fresh.result.ipc);
        }
    }
}

TEST(TraceReplay, DataScalarDumpStatsByteIdentical)
{
    const prog::Program &p = *testProgram();
    core::SimConfig cfg = testConfig(true);

    core::DataScalarSystem live(p, cfg, figure7PageTable(p, 2));
    core::DataScalarSystem replay(p, cfg, figure7PageTable(p, 2),
                                  testTrace());
    live.run();
    replay.run();

    std::ostringstream a, b;
    live.dumpStats(a);
    replay.dumpStats(b);
    EXPECT_EQ(b.str(), a.str());
    EXPECT_EQ(replay.output(), live.output());
}

TEST(TraceReplay, FaultInjectionWithRecoveryMatchesLive)
{
    // Fault decisions are a pure function of the seed and message
    // identities, not of the execution backend — so a faulty run
    // with recovery armed must replay cycle- and stats-identical to
    // its live counterpart. The fuzzer's crossReplay check on fault
    // configs rests on this corner.
    const prog::Program &p = *testProgram();
    for (bool ed : {true, false}) {
        SCOPED_TRACE(ed ? "event-driven" : "cycle-stepped");
        core::SimConfig cfg = testConfig(ed);
        cfg.fault.dropProb = 0.05;
        cfg.fault.dupProb = 0.02;
        cfg.fault.delayProb = 0.1;
        cfg.fault.maxDelay = 16;
        cfg.fault.seed = 42;
        cfg.rerequestTimeout = 2000;

        core::DataScalarSystem live(p, cfg, figure7PageTable(p, 2));
        core::DataScalarSystem replay(p, cfg, figure7PageTable(p, 2),
                                      testTrace());
        core::RunResult fresh = live.run();
        core::RunResult again = replay.run();

        // The faults must actually fire for this to test anything.
        std::uint64_t rerequests = 0;
        for (NodeId n = 0; n < 2; ++n)
            rerequests += live.node(n).nodeStats().rerequestsSent;
        EXPECT_GT(rerequests, 0u);

        EXPECT_EQ(again.cycles, fresh.cycles);
        EXPECT_EQ(again.instructions, fresh.instructions);
        EXPECT_EQ(replay.output(), live.output());
        std::ostringstream a, b;
        live.dumpStats(a);
        replay.dumpStats(b);
        EXPECT_EQ(b.str(), a.str());
    }
}

TEST(TraceReplay, PerfectOutputMatchesAcrossBackends)
{
    const prog::Program &p = *testProgram();
    core::SimConfig cfg = testConfig(true);
    baseline::PerfectSystem live(p, cfg);
    baseline::PerfectSystem replay(p, cfg, testTrace());
    live.run();
    replay.run();
    EXPECT_EQ(replay.output(), live.output());
}

TEST(TraceReplay, TruncatedReplayOutputMatchesLiveBudget)
{
    // A trace captured to completion, replayed at a smaller budget:
    // the reported syscall output must be what a live run stopped at
    // that budget prints, not the full captured run's output.
    using namespace prog::reg;
    prog::Program p;
    prog::Assembler a(p);
    a.li(t0, 3000);
    a.label("loop");
    a.addi(a0, t0, 0);
    a.syscall(isa::Syscall::PrintInt);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, "loop");
    a.halt();
    a.finalize();

    auto trace = func::InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());

    core::SimConfig cfg = testConfig(true);
    cfg.maxInsts = 5000; // well below the ~12000 captured records
    baseline::PerfectSystem live(p, cfg);
    baseline::PerfectSystem replay(p, cfg, trace);
    live.run();
    replay.run();
    EXPECT_FALSE(live.output().empty());
    EXPECT_EQ(replay.output(), live.output());
    EXPECT_NE(replay.output(), trace->output());
}

TEST(TraceReplay, TraditionalOutputMatchesAcrossBackends)
{
    const prog::Program &p = *testProgram();
    core::SimConfig cfg = testConfig(true);
    baseline::TraditionalSystem live(p, cfg,
                                     figure7PageTable(p, 2));
    baseline::TraditionalSystem replay(p, cfg,
                                       figure7PageTable(p, 2),
                                       testTrace());
    live.run();
    replay.run();
    EXPECT_EQ(replay.output(), live.output());
}

} // namespace
} // namespace driver
} // namespace dscalar
