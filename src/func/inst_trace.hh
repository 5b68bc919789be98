/**
 * @file
 * Immutable capture of one workload's dynamic instruction stream.
 *
 * The paper's SPSD property (Section 2) means every DataScalar node
 * — and every sweep point over the same workload — consumes the
 * *identical* dynamic stream. An InstTrace is that stream computed
 * once by a single FuncSim run and then shared read-only between any
 * number of consumers, on any thread, via std::shared_ptr.
 *
 * Each 4096-record chunk stores the stream in one compact layout: the
 * raw instruction words (4 B each), a bitmask with one bit per record set
 * when nextPc != pc + 4, the nextPc of just those records, and the
 * effAddr of just the memory ops, back to back in one 8-byte-aligned
 * block. The first pc sits beside the block; every later pc is the
 * previous nextPc, memSize follows from the opcode and the sequence
 * number from the position: 5-8 B/record on the paper's workloads. A
 * Chunk::Cursor reads the records in order.
 *
 * Chunks are individually reference counted so a consumer that has
 * advanced past a chunk can drop its reference and let the memory go
 * as soon as every other holder has too — the same
 * compute-once-and-broadcast shape the paper applies to operands.
 */

#ifndef DSCALAR_FUNC_INST_TRACE_HH
#define DSCALAR_FUNC_INST_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "func/func_sim.hh"
#include "isa/instruction.hh"
#include "prog/program.hh"

namespace dscalar {
namespace func {

/** One captured, immutable dynamic instruction stream. */
class InstTrace
{
  public:
    /** Records per chunk (power of two so record -> chunk is a
     *  shift). */
    static constexpr unsigned kChunkShift = 12;
    static constexpr InstSeq kChunkRecords = InstSeq(1) << kChunkShift;
    static constexpr InstSeq kChunkMask = kChunkRecords - 1;

    /**
     * One block of consecutive dynamic instructions in the compact
     * layout (see the file comment). The column views are the read
     * interface; they point into the chunk's own block. A chunk is
     * immutable once built.
     */
    struct Chunk
    {
        /** Byte offsets of each column inside a block; word starts
         *  at 0 and every column starts 8-byte aligned. */
        struct Layout
        {
            std::size_t nonSeq;
            std::size_t nextPc;
            std::size_t effAddr;
            std::size_t bytes; ///< whole block
        };
        static Layout layout(std::size_t count, std::size_t next_pcs,
                             std::size_t eff_addrs);

        Addr firstPc = 0;             ///< pc of record 0
        std::size_t count = 0;        ///< records
        std::size_t nextPcCount = 0;  ///< set bits of nonSeq
        std::size_t effAddrCount = 0; ///< memory-op records
        const std::uint32_t *word = nullptr;
        const std::uint64_t *nonSeq = nullptr; ///< bit i: record i
        const Addr *nextPc = nullptr;
        const Addr *effAddr = nullptr;

        /** The block the column views point into. */
        std::unique_ptr<unsigned char[]> owned;

        std::size_t size() const { return count; }
        Layout
        layout() const
        {
            return layout(count, nextPcCount, effAddrCount);
        }
        /** Heap payload of the block. */
        std::size_t bytes() const { return layout().bytes; }

        class Cursor;
        class Builder;
    };

    /** Output length watermark: after record seq retired, output()
     *  held bytes bytes. Only records that printed get a mark. */
    struct OutputMark
    {
        InstSeq seq;
        std::uint64_t bytes;
    };

    /**
     * Capture @p program's dynamic stream with one functional run,
     * executing @p max_insts instructions or to completion
     * (max_insts == 0). The trace also keeps the run's syscall
     * output so replayed systems can report it without re-executing.
     */
    static std::shared_ptr<const InstTrace>
    capture(const prog::Program &program, InstSeq max_insts = 0);

    /**
     * The one capture routine, shared by capture() and a
     * program-backed ooo::OracleStream: step @p sim for up to
     * @p records instructions into a new chunk (fewer when the
     * program halts inside it). With @p marks non-null, every record
     * that printed appends an OutputMark; @p first_seq is the
     * sequence number of the chunk's first record. Panics when a
     * record breaks a derivation the layout relies on.
     */
    static std::shared_ptr<const Chunk>
    captureChunk(FuncSim &sim, InstSeq first_seq, InstSeq records,
                 std::vector<OutputMark> *marks = nullptr);

    /** Number of captured records. */
    InstSeq length() const { return length_; }

    /** True when the program halted inside the captured window (the
     *  trace covers the whole run, not a max_insts prefix). */
    bool programHalted() const { return halted_; }

    /** Bytes written by Print* syscalls during the captured prefix. */
    const std::string &output() const { return output_; }

    /** Watermarks backing outputPrefix(), in ascending seq order. */
    const std::vector<OutputMark> &
    outputMarks() const
    {
        return outputMarks_;
    }

    /**
     * Bytes written by the first @p max_insts captured records
     * (0 = the whole capture), so a replay truncated below the
     * capture budget reports exactly what a live run at that budget
     * would have printed.
     */
    std::string outputPrefix(InstSeq max_insts) const;

    std::size_t numChunks() const { return chunks_.size(); }
    const std::shared_ptr<const Chunk> &
    chunk(std::size_t index) const
    {
        return chunks_[index];
    }

    /** Approximate heap footprint of the captured payload in bytes. */
    std::size_t memoryBytes() const;

    /**
     * One in-order pass over every record:
     * fn(pc, inst, effAddr, memSize) with the hook-equivalent
     * ordering (each record's fetch precedes its data access).
     */
    template <typename Fn> void forEach(Fn &&fn) const;

  private:
    InstTrace() = default;

    std::vector<std::shared_ptr<const Chunk>> chunks_;
    InstSeq length_ = 0;
    bool halted_ = false;
    std::string output_;
    std::vector<OutputMark> outputMarks_;
};

/** In-order reader of one chunk's records. */
class InstTrace::Chunk::Cursor
{
  public:
    explicit Cursor(const Chunk &chunk)
        : chunk_(chunk), pc_(chunk.firstPc)
    {}

    /** Expand the next record, numbered @p seq, into the DynInst a
     *  live FuncSim step would have produced. */
    void next(InstSeq seq, DynInst &out) { next(seq, &out, 1); }

    /** Expand the next @p n records, numbered from @p seq, into
     *  out[0, n). At most size() records in all. */
    void
    next(InstSeq seq, DynInst *out, std::size_t n)
    {
        // Two passes: the stream fields, then the decode. Split this
        // way the counters below stay in registers.
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t i = i_ + k;
            unsigned width = isa::memWidth(chunk_.word[i]);
            unsigned mem = width != 0;
            unsigned jump = (chunk_.nonSeq[i >> 6] >> (i & 63)) & 1;
            // Both sparse columns are read whether or not the record
            // has an entry, one slot early when it has none, so the
            // selects need no branch. Slot -1 still lies in the
            // block: the bitmask (at least one word) precedes
            // nextPc, which precedes effAddr.
            Addr eff = chunk_.effAddr[std::ptrdiff_t(mem_ + mem) - 1];
            Addr target =
                chunk_.nextPc[std::ptrdiff_t(jump_ + jump) - 1];
            DynInst &rec = out[k];
            rec.seq = seq + k;
            rec.pc = pc_;
            rec.effAddr = mem ? eff : invalidAddr;
            rec.memSize = width;
            pc_ = jump ? target : pc_ + 4;
            rec.nextPc = pc_;
            mem_ += mem;
            jump_ += jump;
        }
        for (std::size_t k = 0; k < n; ++k)
            out[k].inst = isa::decode(chunk_.word[i_ + k]);
        i_ += n;
    }

  private:
    const Chunk &chunk_;
    Addr pc_;
    std::size_t i_ = 0;    ///< next record
    std::size_t mem_ = 0;  ///< next effAddr entry
    std::size_t jump_ = 0; ///< next nextPc entry
};

/** Packs records appended in order into one chunk. */
class InstTrace::Chunk::Builder
{
  public:
    explicit Builder(std::size_t reserve = 0);

    /**
     * Append one record. @return nullptr, or — appending nothing —
     * why the layout cannot carry it: its pc is not the previous
     * record's nextPc, or its memSize / effAddr is not what its
     * opcode implies (the access width for memory ops; 0 and
     * invalidAddr otherwise).
     */
    const char *append(Addr pc, std::uint32_t word, Addr eff_addr,
                       unsigned mem_size, Addr next_pc);

    std::size_t size() const { return words_.size(); }

    /** The appended records as a chunk that owns its block. */
    std::shared_ptr<const Chunk> finish() const;

  private:
    std::vector<std::uint32_t> words_;
    std::vector<std::uint64_t> nonSeq_;
    std::vector<Addr> nextPcs_;
    std::vector<Addr> effAddrs_;
    Addr firstPc_ = 0;
    Addr expectPc_ = 0; ///< the last record's nextPc
};

template <typename Fn>
void
InstTrace::forEach(Fn &&fn) const
{
    InstSeq seq = 0;
    DynInst rec;
    for (const auto &c : chunks_) {
        Chunk::Cursor cursor(*c);
        for (std::size_t i = 0; i < c->size(); ++i, ++seq) {
            cursor.next(seq, rec);
            fn(rec.pc, rec.inst, rec.effAddr, rec.memSize);
        }
    }
}

} // namespace func
} // namespace dscalar

#endif // DSCALAR_FUNC_INST_TRACE_HH
