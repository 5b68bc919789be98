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
 * Records have one source, func::InstTrace chunks, read in order by
 * one persistent Chunk::Cursor over the chunk being expanded. A
 * stream over a captured trace expands that trace's chunks, so a
 * sweep re-running the same workload never re-executes it
 * functionally (see driver::TraceCache). A stream over a program
 * captures each chunk on demand with the routine InstTrace::capture
 * uses, so both constructors yield the same records and discover the
 * end at the same probe by construction.
 *
 * Expanded records live in a window of small fixed-size slices,
 * decoded one slice at a time as consumers extend the window. The
 * slice size is the stream's own constant, independent of the trace
 * format's chunk size, so the buffered records follow the consumers'
 * spread (the slowest commit point to the fastest fetch point) rather
 * than whole trace chunks. trim() recycles whole slices through the
 * stream's free list once every consumer is past them, and drops the
 * stream's reference to a source chunk once the window has passed
 * its last record, so a shared trace's memory can go as soon as all
 * other holders are done with it.
 */

#ifndef DSCALAR_OOO_ORACLE_STREAM_HH
#define DSCALAR_OOO_ORACLE_STREAM_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "func/func_sim.hh"
#include "func/inst_trace.hh"
#include "prog/program.hh"

namespace dscalar {
namespace ooo {

/** Lazily extended window over the dynamic stream, buffered in
 *  recycled slices. */
class OracleStream
{
  public:
    /** Buffered records per slice (256 x 48-byte DynInst, 12 KB):
     *  small enough that the window tracks what the cores hold in
     *  flight, large enough that a decode call covers many records. */
    static constexpr unsigned kSliceShift = 8;
    static constexpr InstSeq kSliceRecords = InstSeq(1) << kSliceShift;
    static constexpr InstSeq kSliceMask = kSliceRecords - 1;

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
        if (seq >= windowStart_ && seq < limit_)
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
        panic_if(seq < windowStart_ || seq >= limit_,
                 "stream record %llu not buffered (window base %llu, "
                 "limit %llu)",
                 (unsigned long long)seq,
                 (unsigned long long)windowStart_,
                 (unsigned long long)limit_);
#endif
        InstSeq off = seq - windowStart_;
        return slices_[off >> kSliceShift][off & kSliceMask];
    }

    /** Release records below @p min_seq (all consumers are past
     *  them). Whole slices only: records in the slice containing
     *  @p min_seq, and a slice still being filled, stay buffered. */
    void
    trim(InstSeq min_seq)
    {
        if (min_seq >= windowStart_ + kSliceRecords)
            release(min_seq);
    }

    /** True once the program end has been discovered inside the
     *  stream (an available() probe reached it). */
    bool ended() const { return ended_; }

    /** One past the last instruction; valid only when ended(). */
    InstSeq endSeq() const { return end_; }

    /** Records currently buffered (slice-granular after trim). */
    std::size_t
    bufferedCount() const
    {
        return static_cast<std::size_t>(limit_ - windowStart_);
    }

    /** Bytes the stream's records print (Print* syscalls); complete
     *  once the consumers have run the stream to its end. */
    const std::string &
    output() const
    {
        return sim_ ? sim_->output() : traceOutput_;
    }

  private:
    using Slice = std::unique_ptr<func::DynInst[]>;

    /** Slow path of available(): decode records into the window
     *  (opening source chunks, captured first when program-backed)
     *  until @p seq is buffered or the stream ends. */
    bool extend(InstSeq seq);

    /** Aim the cursor at the chunk holding record limit_, capturing
     *  it first when program-backed. */
    void openChunk();

    /** trim()'s work once at least one slice may go. */
    void release(InstSeq min_seq);

    /** Program-backed only: executes the program as chunks are
     *  captured. */
    std::unique_ptr<func::FuncSim> sim_;
    /** Program-backed only: the text the chunks are laid out
     *  against. */
    std::shared_ptr<const func::TextImage> text_;
    /** Output of the replayed prefix (trace-backed only). */
    std::string traceOutput_;
    /** Source chunk per chunk index (the stream does not pin a whole
     *  InstTrace), dropped once the window passes each chunk — the
     *  refcounted chunk release that lets a shared trace's memory go
     *  progressively as every consumer advances. */
    std::vector<std::shared_ptr<const func::InstTrace::Chunk>>
        sourceChunks_;
    /** Index of the first source chunk not yet dropped. */
    std::size_t liveChunk_ = 0;
    /** Reads the chunk being expanded; empty between chunks. */
    std::optional<func::InstTrace::Chunk::Cursor> cursor_;
    /** One past the last record of the cursor's chunk. */
    InstSeq cursorEnd_ = 0;
    /** One past the last record the stream may produce: the budget,
     *  or the program's end once known. */
    InstSeq sourceEnd_ = ~static_cast<InstSeq>(0);
    /** sourceEnd_ is a program halt rather than a budget. */
    bool sourceHalts_ = false;

    /** The window: slices_[0] starts at windowStart_ (always a slice
     *  multiple); only the last slice may be partly filled. */
    std::deque<Slice> slices_;
    /** Trimmed slices, refilled by the next extend. */
    std::vector<Slice> free_;
    InstSeq windowStart_ = 0;
    InstSeq limit_ = 0; ///< one past the highest buffered record
    bool ended_ = false;
    InstSeq end_ = 0;
};

} // namespace ooo
} // namespace dscalar

#endif // DSCALAR_OOO_ORACLE_STREAM_HH
