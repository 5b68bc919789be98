/**
 * @file
 * Immutable capture of one workload's dynamic instruction stream.
 *
 * The paper's SPSD property (Section 2) means every DataScalar node
 * — and every sweep point over the same workload — consumes the
 * *identical* dynamic stream. An InstTrace is that stream computed
 * once: a chunked structure-of-arrays record (pc, raw instruction
 * word, effective address, access size, resolved next pc; the
 * sequence number is the record's position) produced by a single
 * FuncSim run and then shared read-only between any number of
 * consumers, on any thread, via std::shared_ptr.
 *
 * Chunks are individually reference counted so a consumer that has
 * advanced past a chunk can drop its reference and let the memory go
 * as soon as every other holder has too — the same
 * compute-once-and-broadcast shape the paper applies to operands.
 *
 * Each chunk exposes its columns as raw read-only pointer views.
 * A chunk produced by capture() (or a decompressing load) *owns* its
 * columns in the *Store vectors; a chunk loaded from an on-disk trace
 * file (func/trace_file.hh) may instead *borrow* them straight out of
 * a read-only file mapping, with `backing` keeping the mapping alive
 * until the last borrowed chunk is released — so loading a multi-GB
 * trace costs O(pages touched), never a copy.
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
     *  shift). 4096 records ≈ 116 KB of SoA payload per chunk. */
    static constexpr unsigned kChunkShift = 12;
    static constexpr InstSeq kChunkRecords = InstSeq(1) << kChunkShift;
    static constexpr InstSeq kChunkMask = kChunkRecords - 1;

    /**
     * Structure-of-arrays block of consecutive dynamic instructions.
     * Element i of every column view describes record firstSeq + i;
     * the raw word re-decodes to the retired instruction.
     *
     * The pointer views are the read interface. Columns filled into
     * the *Store vectors are published through them by seal();
     * columns borrowed from a file mapping point into `backing`.
     * A sealed chunk is immutable.
     */
    struct Chunk
    {
        const Addr *pc = nullptr;
        const std::uint32_t *word = nullptr; ///< encoded instruction
        const Addr *effAddr = nullptr;       ///< invalidAddr if not mem
        const std::uint8_t *memSize = nullptr; ///< bytes, 0 if not mem
        const Addr *nextPc = nullptr;
        std::size_t count = 0;

        std::size_t size() const { return count; }
        /** Owned heap payload; borrowed columns cost no heap. */
        std::size_t bytes() const;
        /** True when any column lives in a file mapping. */
        bool borrowed() const { return backing != nullptr; }

        /** Expand record @p i of this chunk (sequence @p seq) into
         *  the DynInst a live FuncSim step would have produced. */
        void
        expand(std::size_t i, InstSeq seq, DynInst &out) const
        {
            out.seq = seq;
            out.pc = pc[i];
            out.inst = isa::decode(word[i]);
            out.effAddr = effAddr[i];
            out.memSize = memSize[i];
            out.nextPc = nextPc[i];
        }

        /** Point every null view at its *Store vector and set count
         *  (all owned columns must have equal length). Views already
         *  aimed at borrowed storage are left alone. */
        void seal();

        // Owned column storage (capture, or decompressed load).
        std::vector<Addr> pcStore;
        std::vector<std::uint32_t> wordStore;
        std::vector<Addr> effAddrStore;
        std::vector<std::uint8_t> memSizeStore;
        std::vector<Addr> nextPcStore;
        /** Keep-alive for columns borrowed from a file mapping. */
        std::shared_ptr<const void> backing;
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
     * @p records instructions into a new sealed chunk (fewer when the
     * program halts inside it). With @p marks non-null, every record
     * that printed appends an OutputMark; @p first_seq is the
     * sequence number of the chunk's first record.
     */
    static std::shared_ptr<const Chunk>
    captureChunk(FuncSim &sim, InstSeq first_seq, InstSeq records,
                 std::vector<OutputMark> *marks = nullptr);

    /** Everything a loader must supply to rebuild a trace. */
    struct Parts
    {
        std::vector<std::shared_ptr<const Chunk>> chunks;
        InstSeq length = 0;
        bool halted = false;
        std::string output;
        std::vector<OutputMark> outputMarks; ///< ascending seq
    };

    /** Reassemble a trace from loader-built parts (trace_file.cc).
     *  Chunks must be sealed and sum to @p parts.length records. */
    static std::shared_ptr<const InstTrace> fromParts(Parts &&parts);

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

    /** Approximate heap footprint of the SoA payload in bytes
     *  (borrowed chunks count only their bookkeeping — their pages
     *  belong to the shared file mapping). */
    std::size_t memoryBytes() const;

    /** Expand record @p seq (must be < length()). */
    void
    expand(InstSeq seq, DynInst &out) const
    {
        chunks_[seq >> kChunkShift]->expand(seq & kChunkMask, seq,
                                            out);
    }

    /**
     * One in-order pass over every record:
     * fn(pc, inst, effAddr, memSize) with the hook-equivalent
     * ordering (each record's fetch precedes its data access).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        InstSeq seq = 0;
        for (const auto &c : chunks_) {
            for (std::size_t i = 0; i < c->size(); ++i, ++seq) {
                fn(c->pc[i], isa::decode(c->word[i]), c->effAddr[i],
                   static_cast<unsigned>(c->memSize[i]));
            }
        }
    }

  private:
    InstTrace() = default;

    std::vector<std::shared_ptr<const Chunk>> chunks_;
    InstSeq length_ = 0;
    bool halted_ = false;
    std::string output_;
    std::vector<OutputMark> outputMarks_;
};

} // namespace func
} // namespace dscalar

#endif // DSCALAR_FUNC_INST_TRACE_HH
