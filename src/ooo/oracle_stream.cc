#include "ooo/oracle_stream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dscalar {
namespace ooo {

OracleStream::OracleStream(const prog::Program &program,
                           InstSeq max_insts)
    : sim_(std::make_unique<func::FuncSim>(program))
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
    sourceChunks_.reserve(trace->numChunks());
    for (std::size_t i = 0; i < trace->numChunks(); ++i)
        sourceChunks_.push_back(trace->chunk(i));
    // The trace itself is not retained: once every consumer trims
    // past a chunk (and any cache lets the trace go), its memory is
    // freed even while later chunks are still being replayed.
}

bool
OracleStream::extend(InstSeq seq)
{
    panic_if(seq < chunkStart_,
             "stream record %llu already trimmed (chunk base %llu)",
             (unsigned long long)seq,
             (unsigned long long)chunkStart_);

    while (!ended_ && seq >= limit_) {
        if (limit_ >= sourceEnd_) {
            // Budget truncation (or a fully consumed trace) is only
            // discovered by probing past the end.
            ended_ = true;
            end_ = sourceEnd_;
            break;
        }
        std::size_t ci = static_cast<std::size_t>(limit_ >> kChunkShift);
        InstSeq chunk_end = std::min(
            sourceEnd_, (static_cast<InstSeq>(ci) + 1) << kChunkShift);
        if (sim_) {
            // Program-backed: capture this chunk now. A halt inside
            // it fixes the stream's end.
            sourceChunks_.push_back(func::InstTrace::captureChunk(
                *sim_, limit_, chunk_end - limit_));
            if (sim_->halted()) {
                sourceEnd_ = limit_ + sourceChunks_.back()->size();
                sourceHalts_ = true;
                chunk_end = sourceEnd_;
            }
        }
        std::size_t n = static_cast<std::size_t>(chunk_end - limit_);
        const func::InstTrace::Chunk &src = *sourceChunks_[ci];
        // Reuse the last trimmed chunk's buffer: every record in it
        // is overwritten, so it needs no fresh allocation or fill.
        std::vector<func::DynInst> &dst =
            chunks_.emplace_back(std::move(spare_));
        dst.resize(n);
        func::InstTrace::Chunk::Cursor(src).next(limit_, dst.data(), n);
        limit_ = chunk_end;
        if (limit_ == sourceEnd_ && sourceHalts_) {
            // The halt record is buffered: the end is known.
            ended_ = true;
            end_ = sourceEnd_;
        }
    }
    return seq < limit_;
}

void
OracleStream::trim(InstSeq min_seq)
{
    // Whole chunks only; the partial tail chunk always stays.
    while (!chunks_.empty() &&
           chunks_.front().size() == kChunkRecords &&
           chunkStart_ + kChunkRecords <= min_seq) {
        spare_ = std::move(chunks_.front());
        chunks_.pop_front();
        sourceChunks_[static_cast<std::size_t>(chunkStart_ >>
                                               kChunkShift)]
            .reset();
        chunkStart_ += kChunkRecords;
    }
}

} // namespace ooo
} // namespace dscalar
