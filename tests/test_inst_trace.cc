/** @file Unit tests for captured instruction traces and replay. */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baseline/perfect.hh"
#include "core/distribution.hh"
#include "driver/driver.hh"
#include "driver/run_request.hh"
#include "func/inst_trace.hh"
#include "ooo/oracle_stream.hh"
#include "prog/asm_parser.hh"
#include "prog/assembler.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace func {
namespace {

using namespace prog::reg;

prog::Program
countdownProgram(int n)
{
    prog::Program p;
    prog::Assembler a(p);
    a.li(t0, n);
    a.label("loop");
    a.addi(t0, t0, -1);
    a.bne(t0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

prog::Program
compressProgram()
{
    return workloads::findWorkload("compress_s").build(1);
}

prog::Program
printingCountdownProgram(int n)
{
    // li + (mv, syscall, addi, bne) x n + halt: prints n..1, one
    // PrintInt per loop iteration.
    prog::Program p;
    prog::Assembler a(p);
    a.li(t0, n);
    a.label("loop");
    a.addi(a0, t0, 0);
    a.syscall(isa::Syscall::PrintInt);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

/** The word of @p op with the given fields, as a decimal literal
 *  for an assembly source. */
std::string
word(isa::Opcode op, RegIndex rd, RegIndex rs, RegIndex rt,
     std::int32_t imm)
{
    isa::Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs = rs;
    inst.rt = rt;
    inst.imm = imm;
    return std::to_string(isa::encode(inst));
}

/**
 * A loop that rewrites one of its own text words: after the second
 * trip, the `addi` at `slot` becomes a taken `beq` that skips the
 * next instruction. Prints 22 for any trip count of at least 2.
 */
prog::Program
selfModifyingProgram(int iterations)
{
    // As a signed 32-bit value, so li accepts it.
    std::string beq = std::to_string(static_cast<std::int32_t>(
        std::stoul(word(isa::Opcode::BEQ, 0, zero, zero, 1))));
    return prog::assembleSource(R"(
        jal  base                 ; ra = base
base:   addi s0, zero, 0
        addi a0, zero, 0
        li   s1, )" + std::to_string(iterations) + R"(
loop:   addi a0, a0, 1            ; slot: base + 12
        addi a0, a0, 10
        addi s0, s0, 1
        addi t1, zero, 2
        blt  s0, t1, next
        li   t2, )" + beq + R"(
        sw   t2, 12(ra)           ; rewrite the slot
next:   bge  s0, s1, done
        j    loop
done:   syscall 1
        halt
    )", "self_modifying");
}

/** Calls a loop whose words were poked into a data page: every
 *  record there lies outside the text. Prints 35. */
prog::Program
dataPageCodeProgram()
{
    return prog::assembleSource(R"(
        .global code, 64
        .word   code, 0, )" + word(isa::Opcode::ADDI, t2, t2, 0, -1) + R"(
        .word   code, 4, )" + word(isa::Opcode::ADD, a0, a0, t3, 0) + R"(
        .word   code, 8, )" + word(isa::Opcode::BNE, 0, t2, zero, -3) + R"(
        .word   code, 12, )" + word(isa::Opcode::JR, 0, ra, 0, 0) + R"(
        la   t0, code
        addi t2, zero, 5
        addi t3, zero, 7
        addi a0, zero, 0
        beq  t3, zero, skip
        jal  tramp
skip:   syscall 1
        halt
tramp:  jr   t0
    )", "data_page_code");
}

/**
 * Check @p trace record by record, field by field, against a fresh
 * functional run of @p p. @return the trace's override records.
 */
std::size_t
expectMatchesLiveRun(const prog::Program &p, const InstTrace &trace)
{
    FuncSim sim(p);
    InstSeq seq = 0;
    std::size_t overrides = 0;
    for (std::size_t ci = 0; ci < trace.numChunks(); ++ci) {
        const InstTrace::Chunk &chunk = *trace.chunk(ci);
        overrides += chunk.overrideCount;
        InstTrace::Chunk::Cursor cursor(chunk);
        for (std::size_t i = 0; i < chunk.size(); ++i, ++seq) {
            DynInst live;
            EXPECT_TRUE(sim.step(&live));
            DynInst replayed;
            cursor.next(seq, replayed);
            EXPECT_EQ(replayed.seq, live.seq);
            EXPECT_EQ(replayed.pc, live.pc);
            EXPECT_EQ(replayed.inst, live.inst);
            EXPECT_EQ(replayed.effAddr, live.effAddr);
            EXPECT_EQ(replayed.memSize, live.memSize);
            EXPECT_EQ(replayed.nextPc, live.nextPc);
            if (::testing::Test::HasFailure())
                return overrides;
        }
    }
    EXPECT_EQ(seq, trace.length());
    EXPECT_EQ(sim.halted(), trace.programHalted());
    return overrides;
}

TEST(InstTrace, CaptureMatchesLiveExecution)
{
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 8000;
    auto trace = InstTrace::capture(p, budget);
    ASSERT_EQ(trace->length(), budget);
    // A program that never rewrites its text is all text-backed.
    EXPECT_EQ(expectMatchesLiveRun(p, *trace), 0u);
}

TEST(InstTrace, CaptureMatchesSelfModifyingExecution)
{
    // 2000 trips run past the first chunk.
    prog::Program p = selfModifyingProgram(2000);
    auto trace = InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());
    EXPECT_GT(trace->numChunks(), 1u);
    EXPECT_EQ(trace->output(), "22\n");
    EXPECT_GT(expectMatchesLiveRun(p, *trace), 0u);
}

TEST(InstTrace, CaptureMatchesDataPageExecution)
{
    prog::Program p = dataPageCodeProgram();
    auto trace = InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());
    EXPECT_EQ(trace->output(), "35\n");
    // Five trips through three poked words, then the jr back: 16
    // records off the text.
    EXPECT_EQ(expectMatchesLiveRun(p, *trace), 16u);
}

TEST(TraceReplay, SelfModifyingReplayMatchesLiveRun)
{
    driver::RunRequest req;
    req.program = std::make_shared<const prog::Program>(
        selfModifyingProgram(2000));
    req.system = driver::SystemKind::Perfect;
    req.config.numNodes = 2;
    driver::RunResponse live = driver::runOne(req);
    ASSERT_TRUE(live.ok()) << live.error;
    req.trace = InstTrace::capture(*req.program);
    driver::RunResponse replay = driver::runOne(req);
    ASSERT_TRUE(replay.ok()) << replay.error;
    EXPECT_EQ(replay.statsJson(), live.statsJson());
}

TEST(InstTrace, CompactLayoutStaysUnderThreeBytesPerRecord)
{
    // The text supplies every record's instruction, access width and
    // direct target; a record costs its two bits plus the effAddr of
    // a memory op and the target of a taken JR. On the Figure 7
    // workloads that keeps a capture, text image included, at or
    // below 3 B/record.
    for (const std::string &name : workloads::timingWorkloadNames()) {
        prog::Program p = workloads::findWorkload(name).build(1);
        auto trace = InstTrace::capture(p, 100000);
        ASSERT_GT(trace->length(), 0u) << name;
        double per_record = static_cast<double>(trace->memoryBytes()) /
                            static_cast<double>(trace->length());
        EXPECT_LE(per_record, 3.0) << name;
    }
}

TEST(InstTrace, BuilderRejectsUnderivableRecords)
{
    // The layout derives a record's pc from the previous nextPc, its
    // memSize/effAddr from the opcode and a taken direct transfer's
    // nextPc from its target; a record that disagrees cannot be
    // stored and must be refused, not silently rewritten. These pcs
    // lie outside the (empty) text, so every record is an override
    // that carries its own word.
    auto text = std::make_shared<const TextImage>(prog::Program());
    isa::Instruction nop;
    isa::Instruction lw;
    lw.op = isa::Opcode::LW;
    isa::Instruction jr;
    jr.op = isa::Opcode::JR;
    jr.rs = ra;
    isa::Instruction beq;
    beq.op = isa::Opcode::BEQ;
    beq.imm = 3; // taken target: pc + 16
    isa::Instruction lw_rt = lw; // loads encode no rt
    lw_rt.rt = t0;

    auto refused = [](const char *why, const char *text) {
        ASSERT_NE(why, nullptr) << text;
        EXPECT_NE(std::string(why).find(text), std::string::npos)
            << why;
    };

    InstTrace::Chunk::Builder b(text);
    // A jr's taken target is the one nextPc the layout stores.
    ASSERT_EQ(b.append(0x1000, jr, invalidAddr, 0, 0x2000), nullptr);
    refused(b.append(0x1004, nop, invalidAddr, 0, 0x1008),
            "previous record's nextPc");
    refused(b.append(0x2000, lw_rt, 0x8000, 4, 0x2004),
            "has no encoding");
    // A load of the wrong width, a non-memory op with an address,
    // and a non-memory op with a width.
    for (auto [inst, eff, size] :
         {std::tuple{lw, Addr(0x8000), 8u},
          std::tuple{nop, Addr(0x8000), 0u},
          std::tuple{nop, invalidAddr, 4u}})
        refused(b.append(0x2000, inst, eff, size, 0x2004),
                "opcode implies");
    // A taken beq whose nextPc is not its target, and a nop that
    // does not fall through.
    refused(b.append(0x2000, beq, invalidAddr, 0, 0x3000),
            "transfer's target");
    refused(b.append(0x2000, nop, invalidAddr, 0, 0x2010),
            "transfer's target");
    EXPECT_EQ(b.size(), 1u) << "a refused record must not be appended";

    ASSERT_EQ(b.append(0x2000, beq, invalidAddr, 0, 0x2010), nullptr);
    ASSERT_EQ(b.append(0x2010, lw, 0x8000, 4, 0x2014), nullptr);
    auto chunk = b.finish();
    ASSERT_EQ(chunk->size(), 3u);
    EXPECT_EQ(chunk->targetCount, 1u) << "only the jr's target";
    EXPECT_EQ(chunk->effAddrCount, 1u);
    EXPECT_EQ(chunk->overrideCount, 3u);
    InstTrace::Chunk::Cursor cursor(*chunk);
    DynInst rec;
    cursor.next(0, rec);
    EXPECT_EQ(rec.pc, 0x1000u);
    EXPECT_EQ(rec.inst, jr);
    EXPECT_EQ(rec.nextPc, 0x2000u);
    EXPECT_EQ(rec.effAddr, invalidAddr);
    cursor.next(1, rec);
    EXPECT_EQ(rec.pc, 0x2000u);
    EXPECT_EQ(rec.inst, beq);
    EXPECT_EQ(rec.nextPc, 0x2010u);
    cursor.next(2, rec);
    EXPECT_EQ(rec.pc, 0x2010u);
    EXPECT_EQ(rec.nextPc, 0x2014u);
    EXPECT_EQ(rec.effAddr, 0x8000u);
    EXPECT_EQ(rec.memSize, 4u);
}

TEST(InstTrace, RecordsHaltAndLength)
{
    // li + (addi, bne) x10 + halt = 22 records, run to completion.
    prog::Program p = countdownProgram(10);
    auto full = InstTrace::capture(p);
    EXPECT_EQ(full->length(), 22u);
    EXPECT_TRUE(full->programHalted());

    // A budget below the program length is a prefix, not a halt.
    auto prefix = InstTrace::capture(p, 10);
    EXPECT_EQ(prefix->length(), 10u);
    EXPECT_FALSE(prefix->programHalted());
}

TEST(InstTrace, KeepsSyscallOutput)
{
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 50000;
    auto trace = InstTrace::capture(p, budget);

    FuncSim sim(p);
    sim.run(budget);
    EXPECT_EQ(trace->output(), sim.output());
}

TEST(InstTrace, OutputPrefixMatchesTruncatedLiveRun)
{
    prog::Program p = printingCountdownProgram(50); // 202 records
    auto trace = InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());
    EXPECT_EQ(trace->outputPrefix(0), trace->output());

    // At every truncation point the prefix must be exactly what a
    // live run stopped at that budget prints — replaying a trace at
    // a smaller budget must not leak output from beyond it.
    for (InstSeq budget : {1, 2, 3, 41, 100, 201, 202, 500}) {
        FuncSim sim(p);
        sim.run(budget);
        EXPECT_EQ(trace->outputPrefix(budget), sim.output())
            << "budget " << budget;
    }
}

/** The system-level twin: the unit assert under the replay axis of
 *  tests/test_identity.cc. */
TEST(TraceReplay, TruncatedReplayOutputMatchesLiveBudget)
{
    prog::Program p = printingCountdownProgram(3000);
    auto trace = InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());

    core::SimConfig cfg = driver::paperConfig();
    cfg.maxInsts = 5000; // well below the ~12000 captured records
    baseline::PerfectSystem live(p, cfg);
    baseline::PerfectSystem replay(p, cfg, trace);
    live.run();
    replay.run();
    EXPECT_FALSE(live.output().empty());
    EXPECT_EQ(replay.output(), live.output());
    EXPECT_NE(replay.output(), trace->output());
}

TEST(InstTrace, ReplayRejectsUnderCoveringTrace)
{
    prog::Program p = compressProgram();
    auto prefix = InstTrace::capture(p, 1000);
    ASSERT_FALSE(prefix->programHalted());
    // Budgets the capture covers replay fine...
    ooo::OracleStream ok(prefix, 1000);
    EXPECT_TRUE(ok.available(999));
    // ...but a run-to-completion or larger budget would silently
    // simulate fewer instructions than a live run; it must die.
    EXPECT_DEATH(ooo::OracleStream(prefix, 0), "cannot cover");
    EXPECT_DEATH(ooo::OracleStream(prefix, 1001), "cannot cover");
}

TEST(InstTrace, ReplayStreamMatchesLiveStream)
{
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 6000; // spans two chunks
    auto trace = InstTrace::capture(p, budget);

    // Replayed records against a directly stepped FuncSim, and the
    // end against a program-backed stream's.
    FuncSim sim(p);
    ooo::OracleStream program_backed(p, budget);
    ooo::OracleStream replay(trace, budget);

    DynInst a;
    InstSeq seq = 0;
    for (; seq < budget && sim.step(&a); ++seq) {
        ASSERT_TRUE(replay.available(seq));
        ASSERT_TRUE(program_backed.available(seq));
        const DynInst &b = replay.get(seq);
        ASSERT_EQ(b.seq, seq);
        ASSERT_EQ(b.pc, a.pc);
        ASSERT_EQ(isa::encode(b.inst), isa::encode(a.inst));
        ASSERT_EQ(b.effAddr, a.effAddr);
        ASSERT_EQ(b.memSize, a.memSize);
        ASSERT_EQ(b.nextPc, a.nextPc);
    }
    EXPECT_FALSE(replay.available(seq));
    EXPECT_FALSE(program_backed.available(seq));
    EXPECT_EQ(program_backed.ended(), replay.ended());
    EXPECT_EQ(program_backed.endSeq(), replay.endSeq());
    EXPECT_EQ(replay.endSeq(), seq);
}

TEST(InstTrace, ReplayTruncatesBelowTraceLength)
{
    prog::Program p = compressProgram();
    auto trace = InstTrace::capture(p, 6000);
    ooo::OracleStream stream(trace, 1000);
    EXPECT_TRUE(stream.available(999));
    EXPECT_FALSE(stream.available(1000));
    EXPECT_TRUE(stream.ended());
    EXPECT_EQ(stream.endSeq(), 1000u);
}

TEST(InstTrace, TrimDropsChunkReferences)
{
    // li + (addi, bne) x3000 + halt = 6002 records: two chunks.
    prog::Program p = countdownProgram(3000);
    auto trace = InstTrace::capture(p);
    ASSERT_EQ(trace->numChunks(), 2u);
    long base = trace->chunk(0).use_count();

    {
        ooo::OracleStream stream(trace, 0);
        EXPECT_EQ(trace->chunk(0).use_count(), base + 1);
        ASSERT_TRUE(stream.available(6001));

        // Advancing past the first chunk releases the stream's
        // reference into the shared trace; the trace itself still
        // holds the chunk.
        stream.trim(InstTrace::kChunkRecords);
        EXPECT_EQ(trace->chunk(0).use_count(), base);
        EXPECT_EQ(trace->chunk(1).use_count(), base + 1);
    }
    EXPECT_EQ(trace->chunk(1).use_count(), base);
}

TEST(InstTrace, AnalysesMatchFunctionalRun)
{
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 10000;
    auto trace = InstTrace::capture(p, budget);

    // Page heat, Table 1 traffic, and Table 2 datathreads rederived
    // from the trace must equal the execution-driven versions
    // exactly — same accesses, same order, same cache state.
    core::PageHeat heat_live = driver::profilePages(p, budget);
    core::PageHeat heat_trace = driver::profilePages(*trace);
    EXPECT_EQ(heat_trace, heat_live);

    driver::TrafficResult t_live = driver::measureEspTraffic(p, budget);
    driver::TrafficResult t_trace = driver::measureEspTraffic(*trace);
    EXPECT_EQ(t_trace.requestBytes, t_live.requestBytes);
    EXPECT_EQ(t_trace.responseBytes, t_live.responseBytes);
    EXPECT_EQ(t_trace.writeBackBytes, t_live.writeBackBytes);
    EXPECT_EQ(t_trace.requests, t_live.requests);
    EXPECT_EQ(t_trace.responses, t_live.responses);
    EXPECT_EQ(t_trace.writeBacks, t_live.writeBacks);

    core::DistributionConfig dist;
    dist.numNodes = 4;
    dist.replicateText = false;
    dist.replicatedDataPages = p.touchedPages().size() / 4;
    core::ReplicationReport rep;
    mem::PageTable ptable =
        core::buildPageTable(p, dist, &heat_live, &rep);
    driver::DatathreadResult d_live =
        driver::measureDatathreads(p, ptable, rep, budget);
    driver::DatathreadResult d_trace =
        driver::measureDatathreads(*trace, ptable, rep);
    EXPECT_EQ(d_trace.meanAll, d_live.meanAll);
    EXPECT_EQ(d_trace.meanText, d_live.meanText);
    EXPECT_EQ(d_trace.meanData, d_live.meanData);
    EXPECT_EQ(d_trace.meanRepl, d_live.meanRepl);
    EXPECT_EQ(d_trace.missRefs, d_live.missRefs);
}

} // namespace
} // namespace func
} // namespace dscalar
