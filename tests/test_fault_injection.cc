/** @file Tests for interconnect fault injection and re-request
 *  recovery: seeded determinism, completion under loss, hard BSHR
 *  capacity, the watchdog's deadlock error and its diagnostic dump,
 *  and the fault-delay ceiling that keeps jitter inside its window.
 *  That faulty and hard-BSHR runs repeat byte for byte, stepped or
 *  skipping, is checked by tests/test_identity.cc. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "driver/run_request.hh"
#include "interconnect/fault_model.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace {

using namespace prog::reg;
using interconnect::FaultDecision;
using interconnect::FaultModel;
using interconnect::FaultParams;
using interconnect::MsgKind;

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
    a.add(s2, s2, t0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

bool
sameDecision(const FaultDecision &a, const FaultDecision &b)
{
    return a.drop == b.drop && a.duplicate == b.duplicate &&
           a.delay == b.delay;
}

// --- FaultModel unit tests -----------------------------------------

TEST(FaultModel, SeededDrawsAreReproducible)
{
    FaultParams p;
    p.dropProb = 0.3;
    p.dupProb = 0.2;
    p.delayProb = 0.5;
    p.maxDelay = 16;
    p.seed = 7;

    FaultModel a(p);
    FaultModel b(p);
    for (unsigned i = 0; i < 256; ++i) {
        NodeId src = i % 4;
        Addr line = 0x1000 + 0x40 * (i % 8);
        EXPECT_TRUE(sameDecision(
            a.decide(MsgKind::Broadcast, src, line, i),
            b.decide(MsgKind::Broadcast, src, line, i)));
    }
    EXPECT_EQ(a.faultStats().decisions, 256u);
}

TEST(FaultModel, DecisionsAreKeyedNotGloballyOrdered)
{
    // The nth transmission of a given (kind, src, line) faults the
    // same way no matter what other traffic interleaves with it.
    FaultParams p;
    p.dropProb = 0.4;
    p.seed = 11;

    FaultModel alone(p);
    FaultModel interleaved(p);
    std::vector<FaultDecision> want;
    for (unsigned n = 0; n < 64; ++n)
        want.push_back(
            alone.decide(MsgKind::Broadcast, 0, 0x2000, n));
    for (unsigned n = 0; n < 64; ++n) {
        // Noise from another node between every draw of interest.
        interleaved.decide(MsgKind::Broadcast, 1, 0x9000 + 64 * n, n);
        EXPECT_TRUE(sameDecision(
            interleaved.decide(MsgKind::Broadcast, 0, 0x2000, n),
            want[n]))
            << "draw " << n;
    }
}

TEST(FaultModel, SeedChangesThePattern)
{
    FaultParams p;
    p.dropProb = 0.5;
    FaultParams q = p;
    q.seed = 99;

    FaultModel a(p);
    FaultModel b(q);
    unsigned differing = 0;
    for (unsigned i = 0; i < 256; ++i) {
        Addr line = 0x4000 + 0x40 * i;
        if (!sameDecision(a.decide(MsgKind::Broadcast, 0, line, i),
                          b.decide(MsgKind::Broadcast, 0, line, i)))
            ++differing;
    }
    EXPECT_GT(differing, 0u);
}

TEST(FaultModel, DisabledDrawsNothing)
{
    FaultModel m; // all-off defaults
    EXPECT_FALSE(m.enabled());
    FaultDecision d = m.decide(MsgKind::Broadcast, 0, 0x1000, 0);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.delay, 0u);
    EXPECT_EQ(m.faultStats().decisions, 0u);
}

TEST(FaultModel, DroppedMessagesAreNeitherLateNorDuplicated)
{
    FaultParams p;
    p.dropProb = 1.0;
    p.dupProb = 1.0;
    p.delayProb = 1.0;
    p.maxDelay = 8;
    FaultModel m(p);
    for (unsigned i = 0; i < 32; ++i) {
        FaultDecision d =
            m.decide(MsgKind::Broadcast, 0, 0x40 * i, i);
        EXPECT_TRUE(d.drop);
        EXPECT_FALSE(d.duplicate);
        EXPECT_EQ(d.delay, 0u);
    }
    EXPECT_EQ(m.faultStats().duplicates, 0u);
    EXPECT_EQ(m.faultStats().delays, 0u);
}

// --- System-level fault injection ----------------------------------

struct FaultRun
{
    core::RunResult result;
    std::uint64_t rerequests = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t waitersLeft = 0;
    bool allCommitted = false;
    bool drained = false;
};

FaultRun
runFaulty(const prog::Program &p, const core::SimConfig &cfg)
{
    core::DataScalarSystem sys(
        p, cfg, driver::figure7PageTable(p, cfg.numNodes));
    FaultRun r;
    r.result = sys.run();
    r.allCommitted = true;
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        r.rerequests += sys.node(n).nodeStats().rerequestsSent;
        r.recoveries += sys.node(n).nodeStats().recoveryBroadcasts;
        for (const core::BshrEntryInfo &e :
             sys.node(n).bshr().entries())
            r.waitersLeft += e.waiters;
        r.allCommitted =
            r.allCommitted && sys.node(n).core().committedSeq() ==
                                  r.result.instructions;
    }
    r.drained = sys.protocolDrained();
    return r;
}

TEST(FaultInjection, FaultFreeRunsAreCycleIdentical)
{
    // Arming recovery (non-zero timeout, non-default seed) with all
    // fault probabilities at zero must not perturb a single cycle.
    prog::Program p = streamProgram(8);
    core::SimConfig base = driver::paperConfig();
    base.numNodes = 2;
    core::SimConfig armed = base;
    armed.fault.seed = 123;
    armed.rerequestTimeout = 50'000;

    FaultRun a = runFaulty(p, base);
    FaultRun b = runFaulty(p, armed);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(b.rerequests, 0u);
    EXPECT_TRUE(b.drained);
}

TEST(FaultInjection, DropRecoveryCompletesOnBus)
{
    prog::Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    cfg.fault.dropProb = 0.05;
    cfg.fault.seed = 42;
    cfg.rerequestTimeout = 2'000;

    // Losses deliberately break the exactly-once invariant behind
    // protocolDrained() (a dropped broadcast strands its pending
    // squash), so completion here means: everything committed and no
    // waiter left behind.
    FaultRun a = runFaulty(p, cfg);
    EXPECT_TRUE(a.allCommitted);
    EXPECT_EQ(a.waitersLeft, 0u);
    EXPECT_GT(a.result.instructions, 0u);
    EXPECT_GT(a.rerequests, 0u);
    EXPECT_GT(a.recoveries, 0u);
}

TEST(FaultInjection, DropRecoveryCompletesOnRing)
{
    prog::Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 4;
    cfg.interconnect = core::InterconnectKind::Ring;
    cfg.fault.dropProb = 0.05;
    cfg.fault.seed = 42;
    cfg.rerequestTimeout = 2'000;

    FaultRun a = runFaulty(p, cfg);
    EXPECT_TRUE(a.allCommitted);
    EXPECT_EQ(a.waitersLeft, 0u);
    EXPECT_GT(a.result.instructions, 0u);
    EXPECT_GT(a.rerequests, 0u);
}

TEST(FaultInjection, DelayAndDuplicationPreserveCompletion)
{
    // Jitter and duplicates reorder and repeat deliveries but never
    // lose data: the run completes without any recovery action, and
    // retires exactly as many instructions as the fault-free run.
    prog::Program p = streamProgram(8);
    core::SimConfig clean = driver::paperConfig();
    clean.numNodes = 2;
    FaultRun base = runFaulty(p, clean);

    core::SimConfig cfg = clean;
    cfg.fault.dupProb = 0.05;
    cfg.fault.delayProb = 0.2;
    cfg.fault.maxDelay = 40;
    cfg.fault.seed = 3;

    FaultRun r = runFaulty(p, cfg);
    EXPECT_TRUE(r.allCommitted);
    EXPECT_EQ(r.waitersLeft, 0u);
    EXPECT_EQ(r.result.instructions, base.result.instructions);
    EXPECT_EQ(r.rerequests, 0u);
}

TEST(FaultInjection, CountingSinkSeesFaultEvents)
{
    prog::Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    cfg.fault.dropProb = 0.05;
    cfg.fault.seed = 42;
    cfg.rerequestTimeout = 2'000;

    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    CountingTraceSink sink;
    sys.setTraceSink(&sink);
    sys.run();

    EXPECT_EQ(sink.count(TraceEventKind::FaultDrop),
              sys.faultModel().faultStats().drops);
    EXPECT_GT(sink.count(TraceEventKind::FaultDrop), 0u);
    EXPECT_GT(sink.count(TraceEventKind::Rerequest), 0u);
    EXPECT_GT(sink.count(TraceEventKind::RecoveryBroadcast), 0u);
}

TEST(FaultInjection, HardBshrCapacityCompletes)
{
    // A tiny hard-capacity BSHR forces flow-control stalls and
    // full-bank drops; re-request recovery must still drain the run.
    prog::Program p = streamProgram(8);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    cfg.bshrCapacity = 4;
    cfg.bshrHardCapacity = true;
    cfg.rerequestTimeout = 2'000;

    FaultRun a = runFaulty(p, cfg);
    EXPECT_TRUE(a.allCommitted);
    EXPECT_EQ(a.waitersLeft, 0u);
    EXPECT_GT(a.result.instructions, 0u);
}

// --- Watchdog diagnostics ------------------------------------------

TEST(Watchdog, DumpIsDiagnostic)
{
    prog::Program p = streamProgram(4);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    cfg.rerequestTimeout = 50'000;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));
    sys.run();

    std::ostringstream os;
    sys.watchdogDump(os, 123);
    std::string dump = os.str();
    EXPECT_NE(dump.find("watchdog diagnostics @ cycle 123"),
              std::string::npos);
    EXPECT_NE(dump.find("node 0:"), std::string::npos);
    EXPECT_NE(dump.find("node 1:"), std::string::npos);
    EXPECT_NE(dump.find("in-flight messages:"), std::string::npos);
}

/** Total loss with recovery disabled, on @p nodes nodes: an
 *  unrecoverable protocol deadlock. */
core::RunResult
runDeadlocked(bool skipping, unsigned nodes = 2)
{
    prog::Program p = streamProgram(4);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    cfg.fault.dropProb = 1.0;
    cfg.watchdogCycles = 50'000;
    cfg.eventDriven = skipping;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, nodes));
    return sys.run();
}

TEST(Watchdog, DeadlockIsAnErrorWithDiagnostics)
{
    // The watchdog ends the run as a value carrying the system's
    // diagnostics, rather than letting it spin forever.
    core::RunResult r = runDeadlocked(true);
    EXPECT_TRUE(r.deadlock);
    std::string cycle = std::to_string(r.cycles - 1);
    EXPECT_EQ(r.error.rfind("watchdog: no commit progress for 50000 "
                            "cycles (min committed ",
                            0),
              0u)
        << r.error;
    EXPECT_NE(r.error.find("@ cycle " + cycle + ") -- deadlock\n"),
              std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("==== watchdog diagnostics @ cycle " + cycle),
              std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("node 1:"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("oldest waiter age"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("in-flight messages:"), std::string::npos)
        << r.error;
}

TEST(Watchdog, DeadlockEndsAtTheSameCycleSkippingOrNot)
{
    core::RunResult skip = runDeadlocked(true);
    core::RunResult step = runDeadlocked(false);
    EXPECT_TRUE(skip.deadlock);
    EXPECT_TRUE(step.deadlock);
    EXPECT_EQ(skip.cycles, step.cycles);
    EXPECT_EQ(skip.error, step.error);
    EXPECT_EQ(step.loopTicks, step.cycles);
    EXPECT_LT(skip.loopTicks, step.loopTicks);
}

TEST(Watchdog, DumpExcerptIsBounded)
{
    // Sixteen nodes' heads and BSHRs overrun the excerpt: it keeps
    // its first lines and counts the rest.
    core::RunResult r = runDeadlocked(true, 16);
    ASSERT_TRUE(r.deadlock);
    EXPECT_NE(r.error.find("node 0:"), std::string::npos) << r.error;
    EXPECT_EQ(r.error.find("in-flight messages:"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find(" more lines"), std::string::npos) << r.error;
    std::size_t lines = std::count(r.error.begin(), r.error.end(), '\n');
    EXPECT_LE(lines, 42u) << r.error;
}

TEST(Watchdog, SingleCoreDeadlockIsAValue)
{
    // A 3-cycle window is shorter than the first instruction fetch,
    // so the one core "deadlocks" before its first commit.
    for (driver::SystemKind system :
         {driver::SystemKind::Perfect, driver::SystemKind::Traditional}) {
        driver::RunRequest req;
        req.workload = "go_s";
        req.system = system;
        req.config.maxInsts = 2'000;
        req.config.watchdogCycles = 3;
        driver::RunResponse resp = driver::runOne(req);
        EXPECT_FALSE(resp.ok());
        EXPECT_TRUE(resp.result.deadlock);
        EXPECT_EQ(resp.error, "watchdog: no commit progress for 3 "
                              "cycles (min committed 0 @ cycle 4) -- "
                              "deadlock");
        EXPECT_EQ(resp.result.cycles, 5u);
    }
}

TEST(Watchdog, FaultDelayCeilingCoversEveryRingHop)
{
    // One broadcast's jitter (a delay per bus message, one per ring
    // hop) must stay within half the watchdog window.
    struct Case
    {
        core::InterconnectKind kind;
        unsigned nodes;
        Cycle maxOk;
    } cases[] = {{core::InterconnectKind::Bus, 2, 2'500'000},
                 {core::InterconnectKind::Bus, 256, 2'500'000},
                 {core::InterconnectKind::Ring, 1, 2'500'000},
                 {core::InterconnectKind::Ring, 4, 833'333},
                 {core::InterconnectKind::Ring, 256, 9'803}};
    for (const Case &c : cases) {
        core::SimConfig cfg = driver::paperConfig();
        cfg.interconnect = c.kind;
        cfg.numNodes = c.nodes;
        cfg.fault.delayProb = 1.0;
        cfg.fault.maxDelay = c.maxOk;
        EXPECT_EQ(core::validate(cfg, true), "") << c.nodes;
        cfg.fault.maxDelay = c.maxOk + 1;
        EXPECT_NE(core::validate(cfg, true).find("fault_max_delay"),
                  std::string::npos)
            << c.nodes;
    }
}

TEST(Watchdog, HardCapacityWithoutRecoveryIsRejected)
{
    // bshrHardCapacity drops broadcasts at a full bank; without
    // re-request recovery that is guaranteed data loss.
    prog::Program p = streamProgram(4);
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    cfg.bshrHardCapacity = true;

    EXPECT_DEATH(core::DataScalarSystem(
                     p, cfg, driver::figure7PageTable(p, 2)),
                 "bshr_hard needs re-request recovery");
}

} // namespace
} // namespace dscalar
