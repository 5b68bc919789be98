/** @file Unit tests for the shared dynamic-instruction stream. Every
 *  behaviour is checked over both constructors: a stream over a
 *  program (captured a chunk at a time) and one over a captured
 *  trace. */

#include <gtest/gtest.h>

#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace ooo {
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
printingCountdownProgram(int n)
{
    // li + (mv, syscall, addi, bne) x n + halt.
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

enum class Source { Program, Trace };
constexpr Source kSources[] = {Source::Program, Source::Trace};

const char *
sourceName(Source s)
{
    return s == Source::Program ? "program-backed" : "trace-backed";
}

/** @p p's stream from @p s: captured on demand, or replayed from a
 *  capture at the same budget. */
OracleStream
streamOver(Source s, const prog::Program &p, InstSeq max_insts = 0)
{
    if (s == Source::Program)
        return OracleStream(p, max_insts);
    return OracleStream(func::InstTrace::capture(p, max_insts),
                        max_insts);
}

TEST(OracleStream, ProducesCompleteStream)
{
    prog::Program p = countdownProgram(3);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);

        // li, (addi, bne) x3, halt = 8 records.
        EXPECT_TRUE(stream.available(7));
        EXPECT_FALSE(stream.available(8));
        EXPECT_TRUE(stream.ended());
        EXPECT_EQ(stream.endSeq(), 8u);
        EXPECT_EQ(stream.get(7).inst.op, isa::Opcode::HALT);
    }
}

TEST(OracleStream, SequentialSeqNumbers)
{
    prog::Program p = countdownProgram(5);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);
        for (InstSeq seq = 0; stream.available(seq); ++seq)
            EXPECT_EQ(stream.get(seq).seq, seq);
    }
}

TEST(OracleStream, MultipleConsumersSeeSameRecords)
{
    prog::Program p = countdownProgram(10);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);

        // Consumer A runs ahead; consumer B re-reads older entries.
        ASSERT_TRUE(stream.available(15));
        auto pc15 = stream.get(15).pc;
        auto pc3 = stream.get(3).pc;
        ASSERT_TRUE(stream.available(3));
        EXPECT_EQ(stream.get(3).pc, pc3);
        EXPECT_EQ(stream.get(15).pc, pc15);
    }
}

TEST(OracleStream, TrimReleasesWholeChunksOnly)
{
    // li + (addi, bne) x3000 + halt = 6002 records: two chunks.
    prog::Program p = countdownProgram(3000);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);
        ASSERT_TRUE(stream.available(6001));
        std::size_t before = stream.bufferedCount();
        ASSERT_EQ(before, 6002u);

        // Trimming inside the first chunk releases nothing...
        stream.trim(5);
        EXPECT_EQ(stream.bufferedCount(), before);
        EXPECT_EQ(stream.get(5).seq, 5u); // still accessible

        // ...and records just below a consumed chunk boundary keep
        // the chunk alive.
        stream.trim(OracleStream::kChunkRecords - 1);
        EXPECT_EQ(stream.bufferedCount(), before);

        // Once every record of the first chunk is passed, it goes at
        // once.
        stream.trim(OracleStream::kChunkRecords + 1);
        EXPECT_EQ(stream.bufferedCount(),
                  before - OracleStream::kChunkRecords);
        EXPECT_EQ(stream.get(OracleStream::kChunkRecords + 1).seq,
                  OracleStream::kChunkRecords + 1);
    }
}

TEST(OracleStream, MaxInstsTruncates)
{
    prog::Program p = countdownProgram(1000);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p, 50);
        EXPECT_TRUE(stream.available(49));
        EXPECT_FALSE(stream.available(50));
        EXPECT_TRUE(stream.ended());
        EXPECT_EQ(stream.endSeq(), 50u);
    }
}

/** Probe @p a and @p b in lockstep to the end: the same records, and
 *  the end discovered at the same probe with the same endSeq. */
void
expectSameStream(OracleStream &a, OracleStream &b)
{
    for (InstSeq seq = 0;; ++seq) {
        bool has = a.available(seq);
        ASSERT_EQ(b.available(seq), has) << "seq " << seq;
        ASSERT_EQ(b.ended(), a.ended()) << "seq " << seq;
        if (a.ended()) {
            ASSERT_EQ(b.endSeq(), a.endSeq()) << "seq " << seq;
        }
        if (!has)
            break;
        const func::DynInst &x = a.get(seq);
        const func::DynInst &y = b.get(seq);
        ASSERT_EQ(y.seq, x.seq);
        ASSERT_EQ(y.pc, x.pc);
        ASSERT_EQ(isa::encode(y.inst), isa::encode(x.inst));
        ASSERT_EQ(y.effAddr, x.effAddr);
        ASSERT_EQ(y.memSize, x.memSize);
        ASSERT_EQ(y.nextPc, x.nextPc);
    }
    EXPECT_EQ(b.output(), a.output());
}

TEST(OracleStream, ProgramBackedMatchesCaptureAtChunkBoundaries)
{
    // 4 x 2500 + 2 = 10002 records, printing throughout.
    prog::Program p = printingCountdownProgram(2500);
    auto full = func::InstTrace::capture(p);
    ASSERT_EQ(full->length(), 10002u);
    for (InstSeq budget : {0, 1, 4095, 4096, 4097, 8192}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        OracleStream program_backed(p, budget);
        OracleStream captured(func::InstTrace::capture(p, budget),
                              budget);
        expectSameStream(program_backed, captured);
        // A longer capture truncated to the budget is the same stream.
        OracleStream program_again(p, budget);
        OracleStream truncated(full, budget);
        expectSameStream(program_again, truncated);
    }

    // A halt that is the last record of a full chunk: the end is
    // known as soon as that chunk is buffered, in both sources.
    prog::Program exact = countdownProgram(4095);
    ASSERT_EQ(func::InstTrace::capture(exact)->length(),
              2 * OracleStream::kChunkRecords);
    for (InstSeq budget : {InstSeq(0), 2 * OracleStream::kChunkRecords}) {
        SCOPED_TRACE("exact-multiple halt, budget " +
                     std::to_string(budget));
        OracleStream program_backed(exact, budget);
        OracleStream captured(func::InstTrace::capture(exact, budget),
                              budget);
        expectSameStream(program_backed, captured);
    }
}

TEST(OracleStreamDeath, TrimmedAccessPanics)
{
    prog::Program p = countdownProgram(3000);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);
        ASSERT_TRUE(stream.available(6001));
        stream.trim(OracleStream::kChunkRecords);
        // get() itself only asserts in debug builds; the probe is the
        // guaranteed diagnostic in every build type.
        EXPECT_DEATH(stream.available(2), "trimmed");
    }
}

} // namespace
} // namespace ooo
} // namespace dscalar
