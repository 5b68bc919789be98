/**
 * @file
 * Shared dynamic-instruction stream.
 *
 * One oracle produces the true dynamic stream; every node's
 * out-of-order core consumes it through a cursor. This models two
 * things at once: the perfect branch prediction the paper assumes
 * (Section 4.2), and the SPSD property that all DataScalar nodes
 * execute the identical instruction stream.
 *
 * Records have one source, func::InstTrace chunks, expanded one
 * chunk at a time as consumers extend the window. A stream over a
 * captured trace expands that trace's chunks, so a sweep re-running
 * the same workload never re-executes it functionally (see
 * driver::TraceCache). A stream over a program captures each chunk
 * on demand with the routine InstTrace::capture uses, so both
 * constructors yield the same records and discover the end at the
 * same probe by construction.
 *
 * Buffered records live in fixed-size chunks; trim() releases whole
 * chunks once every consumer is past them, together with the
 * stream's reference to the source chunk, so a shared trace's memory
 * can go as soon as all other holders are done with it.
 */

#ifndef DSCALAR_OOO_ORACLE_STREAM_HH
#define DSCALAR_OOO_ORACLE_STREAM_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "func/func_sim.hh"
#include "func/inst_trace.hh"
#include "prog/program.hh"

namespace dscalar {
namespace ooo {

/** Lazily extended, chunk-refcounted window over the dynamic stream. */
class OracleStream
{
  public:
    /** Buffered records per chunk; matches the trace chunking so each
     *  buffered chunk expands from exactly one trace chunk. */
    static constexpr unsigned kChunkShift = func::InstTrace::kChunkShift;
    static constexpr InstSeq kChunkRecords = func::InstTrace::kChunkRecords;
    static constexpr InstSeq kChunkMask = func::InstTrace::kChunkMask;

    /**
     * Stream over @p program, captured a chunk at a time as consumers
     * extend the window.
     * @param max_insts truncate the stream after this many dynamic
     *        instructions (0 = run the program to completion). The
     *        paper runs "100 million instructions or to completion,
     *        whichever came first".
     */
    explicit OracleStream(const prog::Program &program,
                          InstSeq max_insts = 0);

    /** Stream over a captured trace (no functional execution at
     *  all); @p max_insts further truncates the trace. */
    explicit OracleStream(
        std::shared_ptr<const func::InstTrace> trace,
        InstSeq max_insts = 0);

    /**
     * @return true when instruction @p seq exists (extending the
     * stream as needed); false once the program ends earlier.
     */
    bool
    available(InstSeq seq)
    {
        // Hot path: the record is already buffered (the cores poll
        // this every tick for every fetch/issue candidate).
        if (seq >= chunkStart_ && seq < limit_)
            return true;
        return extend(seq);
    }

    /** The record for @p seq; available(seq) must have returned
     *  true. Bounds are asserted only in debug builds — this is the
     *  cores' per-fetch hot path. */
    const func::DynInst &
    get(InstSeq seq) const
    {
#ifndef NDEBUG
        panic_if(seq < chunkStart_ || seq >= limit_,
                 "stream record %llu not buffered (chunk base %llu, "
                 "limit %llu)",
                 (unsigned long long)seq,
                 (unsigned long long)chunkStart_,
                 (unsigned long long)limit_);
#endif
        InstSeq off = seq - chunkStart_;
        return chunks_[off >> kChunkShift][off & kChunkMask];
    }

    /** Release records below @p min_seq (all consumers are past
     *  them). Whole chunks only: records in the chunk containing
     *  @p min_seq stay buffered. */
    void trim(InstSeq min_seq);

    /** True once the program end has been discovered inside the
     *  stream (an available() probe reached it). */
    bool ended() const { return ended_; }

    /** One past the last instruction; valid only when ended(). */
    InstSeq endSeq() const { return end_; }

    /** Records currently buffered (chunk-granular after trim). */
    std::size_t
    bufferedCount() const
    {
        return static_cast<std::size_t>(limit_ - chunkStart_);
    }

    /** Bytes the stream's records print (Print* syscalls); complete
     *  once the consumers have run the stream to its end. */
    const std::string &
    output() const
    {
        return sim_ ? sim_->output() : traceOutput_;
    }

  private:
    /** Slow path of available(): expand source chunks (capturing
     *  them first when program-backed) until @p seq is buffered or
     *  the stream ends. */
    bool extend(InstSeq seq);

    /** Program-backed only: executes the program as chunks are
     *  captured. */
    std::unique_ptr<func::FuncSim> sim_;
    /** Output of the replayed prefix (trace-backed only). */
    std::string traceOutput_;
    /** Source chunk per chunk index (the stream does not pin a whole
     *  InstTrace), dropped as trim() passes each chunk — the
     *  refcounted chunk release that lets a shared trace's memory go
     *  progressively as every consumer advances. */
    std::vector<std::shared_ptr<const func::InstTrace::Chunk>>
        sourceChunks_;
    /** One past the last record the stream may produce: the budget,
     *  or the program's end once known. */
    InstSeq sourceEnd_ = ~static_cast<InstSeq>(0);
    /** sourceEnd_ is a program halt rather than a budget. */
    bool sourceHalts_ = false;

    /** Buffered records: chunks_[0] starts at chunkStart_ (always a
     *  chunk multiple); only the last chunk may be partial. */
    std::deque<std::vector<func::DynInst>> chunks_;
    /** The last trimmed chunk's buffer, refilled by the next extend. */
    std::vector<func::DynInst> spare_;
    InstSeq chunkStart_ = 0;
    InstSeq limit_ = 0; ///< one past the highest buffered record
    bool ended_ = false;
    InstSeq end_ = 0;
};

} // namespace ooo
} // namespace dscalar

#endif // DSCALAR_OOO_ORACLE_STREAM_HH
