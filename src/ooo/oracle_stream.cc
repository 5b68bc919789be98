#include "ooo/oracle_stream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dscalar {
namespace ooo {

namespace {

constexpr unsigned kChunkShift = func::InstTrace::kChunkShift;

} // namespace

OracleStream::OracleStream(const prog::Program &program,
                           InstSeq max_insts)
    : sim_(std::make_unique<func::FuncSim>(program)),
      text_(std::make_shared<const func::TextImage>(program))
{
    if (max_insts)
        sourceEnd_ = max_insts;
}

OracleStream::OracleStream(
    std::shared_ptr<const func::InstTrace> trace, InstSeq max_insts)
{
    panic_if(!trace, "replay stream needs a trace");
    // A budget-truncated capture only stands in for a program-backed
    // run whose budget it covers; replaying it further would silently
    // simulate fewer instructions and skew every number.
    panic_if(!trace->programHalted() &&
                 (max_insts == 0 || max_insts > trace->length()),
             "trace of %llu records (program not halted) cannot "
             "cover a max_insts=%llu run",
             (unsigned long long)trace->length(),
             (unsigned long long)max_insts);
    traceOutput_ = trace->outputPrefix(max_insts);
    sourceEnd_ = max_insts ? std::min(trace->length(), max_insts)
                           : trace->length();
    // The stream ends in a program halt (rather than an instruction
    // budget) only when the whole captured run is replayed and the
    // capture itself ran to completion.
    sourceHalts_ =
        sourceEnd_ == trace->length() && trace->programHalted();
    // Only the chunks the budget reaches; the trace itself is not
    // retained, so once every consumer trims past a chunk (and any
    // cache lets the trace go), its memory is freed even while later
    // chunks are still being replayed.
    std::size_t chunks = static_cast<std::size_t>(
        (sourceEnd_ + func::InstTrace::kChunkMask) >> kChunkShift);
    sourceChunks_.reserve(chunks);
    for (std::size_t i = 0; i < chunks; ++i)
        sourceChunks_.push_back(trace->chunk(i));
}

void
OracleStream::openChunk()
{
    std::size_t ci = static_cast<std::size_t>(limit_ >> kChunkShift);
    panic_if(limit_ & func::InstTrace::kChunkMask,
             "stream opens chunk %zu mid-way (record %llu)", ci,
             (unsigned long long)limit_);
    cursorEnd_ = (static_cast<InstSeq>(ci) + 1) << kChunkShift;
    if (sim_) {
        // Program-backed: capture this chunk now. A halt inside it
        // fixes the stream's end.
        panic_if(sourceChunks_.size() != ci,
                 "stream captures chunk %zu out of order", ci);
        sourceChunks_.push_back(func::InstTrace::captureChunk(
            text_, *sim_, limit_,
            std::min(sourceEnd_, cursorEnd_) - limit_));
        if (sim_->halted()) {
            sourceEnd_ = limit_ + sourceChunks_.back()->size();
            sourceHalts_ = true;
        }
    }
    cursor_.emplace(*sourceChunks_[ci]);
}

bool
OracleStream::extend(InstSeq seq)
{
    panic_if(seq < windowStart_,
             "stream record %llu already trimmed (window base %llu)",
             (unsigned long long)seq,
             (unsigned long long)windowStart_);

    while (!ended_ && seq >= limit_) {
        if (limit_ >= sourceEnd_) {
            // Budget truncation (or a fully consumed trace) is only
            // discovered by probing past the end.
            ended_ = true;
            end_ = sourceEnd_;
            break;
        }
        if (!cursor_)
            openChunk();
        if ((limit_ & kSliceMask) == 0) {
            // The last slice is full: take a recycled one if any.
            // Every record in it is overwritten before it is read.
            if (free_.empty()) {
                slices_.push_back(
                    std::make_unique_for_overwrite<func::DynInst[]>(
                        kSliceRecords));
            } else {
                slices_.push_back(std::move(free_.back()));
                free_.pop_back();
            }
        }
        // Fill up to the slice's end, the chunk's end, or the
        // stream's end, whichever comes first.
        InstSeq stop =
            std::min({sourceEnd_, cursorEnd_, (limit_ | kSliceMask) + 1});
        // Decode through a local copy: the compiler keeps a local
        // cursor's counters in registers, which it cannot do for a
        // member the DynInst stores might alias.
        func::InstTrace::Chunk::Cursor cursor = *cursor_;
        cursor.next(limit_, &slices_.back()[limit_ & kSliceMask],
                    static_cast<std::size_t>(stop - limit_));
        cursor_.emplace(cursor);
        limit_ = stop;
        if (limit_ == cursorEnd_)
            cursor_.reset();
        if (limit_ == sourceEnd_ && sourceHalts_) {
            // The halt record is buffered: the end is known.
            ended_ = true;
            end_ = sourceEnd_;
        }
    }
    return seq < limit_;
}

void
OracleStream::release(InstSeq min_seq)
{
    // Whole filled slices only; the slice being filled always stays.
    InstSeq upto = std::min(min_seq, limit_);
    while (windowStart_ + kSliceRecords <= upto) {
        free_.push_back(std::move(slices_.front()));
        slices_.pop_front();
        windowStart_ += kSliceRecords;
    }
    // A source chunk goes once the window has passed its last record.
    while (liveChunk_ < sourceChunks_.size() &&
           (static_cast<InstSeq>(liveChunk_) + 1) << kChunkShift <=
               windowStart_)
        sourceChunks_[liveChunk_++].reset();
}

} // namespace ooo
} // namespace dscalar
