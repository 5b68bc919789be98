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
 * Each 4096-record chunk stores only what the program text cannot
 * tell. Every chunk shares one immutable TextImage, the predecoded
 * text of the captured program, and a record whose pc is a text word
 * holding its retired instruction takes its instruction, access
 * width and direct taken target from there. The chunk keeps one
 * taken bit per record (nextPc != pc + 4), one override bit per
 * record, and three sparse columns: the effAddr of each memory op,
 * the target of each taken JR, and the instruction word of each
 * override. A record is an override when its pc is not a text word
 * or the instruction it retired differs from the text's (code a
 * store rewrote). The first pc sits beside the block; every later pc
 * is the previous nextPc and the sequence number follows from the
 * position: 1.0-2.9 B/record, the text image included, on the
 * Figure 7 workloads at 100k instructions. A Chunk::Cursor reads the
 * records in order.
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
#include "func/text_image.hh"
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
     * One block of consecutive dynamic instructions in the
     * text-backed layout (see the file comment). The column views are
     * the read interface; they point into the chunk's own block. A
     * chunk is immutable once built.
     */
    struct Chunk
    {
        /** Byte offsets of each column inside a block; taken starts
         *  at 0 and every column starts 8-byte aligned. */
        struct Layout
        {
            std::size_t override;
            std::size_t target;
            std::size_t effAddr;
            std::size_t overrideWord;
            std::size_t bytes; ///< whole block
        };
        static Layout layout(std::size_t count, std::size_t targets,
                             std::size_t eff_addrs,
                             std::size_t overrides);

        /** The text the records are laid out against. */
        std::shared_ptr<const TextImage> text;
        Addr firstPc = 0;              ///< pc of record 0
        std::size_t count = 0;         ///< records
        std::size_t targetCount = 0;   ///< taken JRs
        std::size_t effAddrCount = 0;  ///< memory-op records
        std::size_t overrideCount = 0; ///< set bits of override
        const std::uint64_t *taken = nullptr;    ///< bit i: record i
        const std::uint64_t *override = nullptr; ///< bit i: record i
        const Addr *target = nullptr;
        const Addr *effAddr = nullptr;
        const std::uint32_t *overrideWord = nullptr;

        /** The block the column views point into. */
        std::unique_ptr<unsigned char[]> owned;

        std::size_t size() const { return count; }
        Layout
        layout() const
        {
            return layout(count, targetCount, effAddrCount,
                          overrideCount);
        }
        /** Heap payload of the block (the shared text excluded). */
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
     * program-backed ooo::OracleStream: step @p sim, which runs the
     * program @p text was built from, for up to @p records
     * instructions into a new chunk (fewer when the program halts
     * inside it). With @p marks non-null, every record that printed
     * appends an OutputMark; @p first_seq is the sequence number of
     * the chunk's first record. Panics when a record breaks a
     * derivation the layout relies on.
     */
    static std::shared_ptr<const Chunk>
    captureChunk(const std::shared_ptr<const TextImage> &text,
                 FuncSim &sim, InstSeq first_seq, InstSeq records,
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

    /** Approximate heap footprint of the captured payload in bytes,
     *  the shared text image counted once. */
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
        : chunk_(&chunk), entries_(chunk.text->entries()),
          base_(chunk.text->base()), pc_(chunk.firstPc)
    {}

    /** Expand the next record, numbered @p seq, into the DynInst a
     *  live FuncSim step would have produced. */
    void next(InstSeq seq, DynInst &out) { next(seq, &out, 1); }

    /** Expand the next @p n records, numbered from @p seq, into
     *  out[0, n). At most size() records in all. */
    void
    next(InstSeq seq, DynInst *out, std::size_t n)
    {
        const Chunk &c = *chunk_;
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t i = i_ + k;
            bool over = (c.override[i >> 6] >> (i & 63)) & 1;
            const TextImage::Entry e =
                over ? TextImage::predecode(
                           isa::decode(c.overrideWord[over_++]), pc_)
                     : entries_[(pc_ - base_) >> 2];
            unsigned mem = e.width != 0;
            unsigned taken = (c.taken[i >> 6] >> (i & 63)) & 1;
            unsigned stored = taken & e.indirect;
            // Both sparse columns are read whether or not the record
            // has an entry, one slot early when it has none, so the
            // selects need no branch. Slot -1 still lies in the
            // block: the bitmasks (at least one word each) precede
            // target, which precedes effAddr.
            Addr eff = c.effAddr[std::ptrdiff_t(mem_ + mem) - 1];
            Addr target = c.target[std::ptrdiff_t(jump_ + stored) - 1];
            DynInst &rec = out[k];
            rec.seq = seq + k;
            rec.pc = pc_;
            rec.inst = e.inst;
            rec.effAddr = mem ? eff : invalidAddr;
            rec.memSize = e.width;
            pc_ = taken ? (stored ? target : e.target) : pc_ + 4;
            rec.nextPc = pc_;
            mem_ += mem;
            jump_ += stored;
        }
        i_ += n;
    }

  private:
    const Chunk *chunk_;
    const TextImage::Entry *entries_; ///< the text's, by word index
    Addr base_;                       ///< the text's first pc
    Addr pc_;
    std::size_t i_ = 0;    ///< next record
    std::size_t mem_ = 0;  ///< next effAddr entry
    std::size_t jump_ = 0; ///< next target entry
    std::size_t over_ = 0; ///< next overrideWord entry
};

/** Packs records appended in order into one chunk. */
class InstTrace::Chunk::Builder
{
  public:
    explicit Builder(std::shared_ptr<const TextImage> text,
                     std::size_t reserve = 0);

    /**
     * Append one record. @return nullptr, or — appending nothing —
     * why the layout cannot carry it: its pc is not the previous
     * record's nextPc; its instruction has no encoding; its memSize
     * / effAddr is not what its opcode implies (the access width for
     * memory ops; 0 and invalidAddr otherwise); or it is a taken
     * transfer whose nextPc the instruction does not imply (a direct
     * branch or jump's nextPc is its target; only a JR's is stored).
     */
    const char *append(Addr pc, const isa::Instruction &inst,
                       Addr eff_addr, unsigned mem_size, Addr next_pc);

    std::size_t size() const { return count_; }

    /** The appended records as a chunk that owns its block. */
    std::shared_ptr<const Chunk> finish() const;

  private:
    std::shared_ptr<const TextImage> text_;
    std::size_t count_ = 0;
    std::vector<std::uint64_t> taken_;
    std::vector<std::uint64_t> override_;
    std::vector<Addr> targets_;
    std::vector<Addr> effAddrs_;
    std::vector<std::uint32_t> overrideWords_;
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
