/** @file Unit tests for the shared dynamic-instruction stream. Every
 *  behaviour is checked over both constructors: a stream over a
 *  program (captured a chunk at a time) and one over a captured
 *  trace. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

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

constexpr InstSeq kSlice = OracleStream::kSliceRecords;
constexpr InstSeq kChunk = func::InstTrace::kChunkRecords;

TEST(OracleStream, TrimReleasesWholeSlicesOnly)
{
    // li + (addi, bne) x3000 + halt = 6002 records: two trace chunks,
    // 24 slices.
    prog::Program p = countdownProgram(3000);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);
        ASSERT_TRUE(stream.available(6001));
        std::size_t before = stream.bufferedCount();
        ASSERT_EQ(before, 6002u);

        // Trimming inside the first slice releases nothing...
        stream.trim(5);
        EXPECT_EQ(stream.bufferedCount(), before);
        EXPECT_EQ(stream.get(5).seq, 5u); // still accessible

        // ...and records just below a slice boundary keep the slice.
        stream.trim(kSlice - 1);
        EXPECT_EQ(stream.bufferedCount(), before);
        EXPECT_EQ(stream.get(0).seq, 0u);

        // Once every record of a slice is passed, it goes at once,
        // and only whole slices follow it.
        stream.trim(kSlice);
        EXPECT_EQ(stream.bufferedCount(), before - kSlice);
        stream.trim(3 * kSlice + 7);
        EXPECT_EQ(stream.bufferedCount(), before - 3 * kSlice);
        EXPECT_EQ(stream.get(3 * kSlice).seq, 3 * kSlice);

        // Trimming past the end keeps the partly filled last slice
        // (6002 = 23 x 256 + 114).
        stream.trim(6002);
        EXPECT_EQ(stream.bufferedCount(), 6002 - 23 * kSlice);
        EXPECT_EQ(stream.get(6001).inst.op, isa::Opcode::HALT);
    }
}

TEST(OracleStream, TrimDropsSourceChunkPastItsLastRecord)
{
    prog::Program p = countdownProgram(3000);
    std::shared_ptr<const func::InstTrace> trace =
        func::InstTrace::capture(p);
    ASSERT_EQ(trace->numChunks(), 2u);
    std::weak_ptr<const func::InstTrace::Chunk> first = trace->chunk(0);
    OracleStream stream(trace);
    // The stream holds chunks, not the trace: with the trace gone,
    // the stream is the chunks' only owner.
    trace.reset();
    ASSERT_TRUE(stream.available(6001));

    // The window has not passed the chunk's last record yet.
    stream.trim(kChunk - 1);
    EXPECT_FALSE(first.expired());
    // Passing it releases the chunk's memory.
    stream.trim(kChunk);
    EXPECT_TRUE(first.expired());
    EXPECT_EQ(stream.get(kChunk).seq, kChunk);
}

TEST(OracleStream, EdgeRecordsSurviveTrimNextToThem)
{
    // 4 x 2500 + 2 = 10002 records, printing throughout.
    prog::Program p = printingCountdownProgram(2500);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream reference = streamOver(s, p);
        OracleStream stream = streamOver(s, p);
        // Slice edge (255/256) and trace chunk edge (4095/4096).
        for (InstSeq edge : {kSlice, kChunk}) {
            SCOPED_TRACE("edge " + std::to_string(edge));
            ASSERT_TRUE(reference.available(edge + kSlice));
            ASSERT_TRUE(stream.available(edge));
            const func::DynInst &lo = reference.get(edge - 1);
            const func::DynInst &hi = reference.get(edge);
            auto same = [&](const func::DynInst &want, InstSeq seq) {
                ASSERT_TRUE(stream.available(seq));
                const func::DynInst &got = stream.get(seq);
                EXPECT_EQ(got.seq, want.seq);
                EXPECT_EQ(got.pc, want.pc);
                EXPECT_EQ(isa::encode(got.inst), isa::encode(want.inst));
                EXPECT_EQ(got.effAddr, want.effAddr);
                EXPECT_EQ(got.memSize, want.memSize);
                EXPECT_EQ(got.nextPc, want.nextPc);
            };
            same(lo, edge - 1);
            same(hi, edge);
            // A trim just below the edge keeps both sides.
            stream.trim(edge - 1);
            same(lo, edge - 1);
            same(hi, edge);
            // A trim at the edge releases the lower side only; the
            // upper side reads the same, as does the next slice's
            // first record, decoded after the trim.
            stream.trim(edge);
            EXPECT_EQ(stream.bufferedCount() % kSlice, 0u);
            same(hi, edge);
            same(reference.get(edge + kSlice), edge + kSlice);
        }
    }
}

TEST(OracleStream, WindowTracksConsumerSpread)
{
    // Two consumers: a leader probing ahead, a follower trailing at
    // a spread that grows and shrinks. After each trim to the
    // follower, the window holds at most the spread plus a partly
    // consumed slice at each end.
    prog::Program p = countdownProgram(6000);
    for (Source s : kSources) {
        SCOPED_TRACE(sourceName(s));
        OracleStream stream = streamOver(s, p);
        InstSeq follower = 0;
        std::size_t most = 0;
        for (InstSeq leader = 0; stream.available(leader); ++leader) {
            InstSeq spread = (leader / 7) % 900;
            follower = std::max(follower,
                                leader > spread ? leader - spread : 0);
            ASSERT_EQ(stream.get(follower).seq, follower);
            stream.trim(follower);
            ASSERT_LE(stream.bufferedCount(),
                      (leader - follower) + 2 * kSlice)
                << "leader " << leader << " follower " << follower;
            most = std::max(most, stream.bufferedCount());
        }
        EXPECT_TRUE(stream.ended());
        // Far below a whole trace chunk.
        EXPECT_LT(most, kChunk / 2);
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
              2 * kChunk);
    for (InstSeq budget : {InstSeq(0), 2 * kChunk}) {
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
        stream.trim(kChunk);
        // get() itself only asserts in debug builds; the probe is the
        // guaranteed diagnostic in every build type.
        EXPECT_DEATH(stream.available(2), "trimmed");
    }
}

} // namespace
} // namespace ooo
} // namespace dscalar
