#include "func/inst_trace.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace dscalar {
namespace func {

InstTrace::Chunk::Layout
InstTrace::Chunk::layout(std::size_t count, std::size_t targets,
                         std::size_t eff_addrs, std::size_t overrides)
{
    std::size_t mask_bytes = (count + 63) / 64 * sizeof(std::uint64_t);
    Layout l{};
    l.override = mask_bytes;
    l.target = l.override + mask_bytes;
    l.effAddr = l.target + targets * sizeof(Addr);
    l.overrideWord = l.effAddr + eff_addrs * sizeof(Addr);
    l.bytes = l.overrideWord + overrides * sizeof(std::uint32_t);
    return l;
}

InstTrace::Chunk::Builder::Builder(std::shared_ptr<const TextImage> text,
                                   std::size_t reserve)
    : text_(std::move(text))
{
    panic_if(!text_, "InstTrace::Chunk::Builder needs a text image");
    taken_.reserve((reserve + 63) / 64);
    override_.reserve((reserve + 63) / 64);
    effAddrs_.reserve(reserve);
}

const char *
InstTrace::Chunk::Builder::append(Addr pc, const isa::Instruction &inst,
                                  Addr eff_addr, unsigned mem_size,
                                  Addr next_pc)
{
    if (count_ != 0 && pc != expectPc_)
        return "pc is not the previous record's nextPc";
    const TextImage::Entry *e = text_->find(pc);
    TextImage::Entry patched;
    std::uint32_t word = 0;
    bool over = !e || !(e->inst == inst);
    if (over) {
        // Stored as its word, so it must be what decode() gives back.
        word = isa::encode(inst);
        if (isa::decode(word) != inst)
            return "instruction has no encoding";
        patched = TextImage::predecode(inst, pc);
        e = &patched;
    }
    if (mem_size != e->width || (!e->width && eff_addr != invalidAddr))
        return "memSize or effAddr is not what the opcode implies";
    bool taken = next_pc != pc + 4;
    if (taken && !e->indirect && next_pc != e->target)
        return "nextPc is neither pc + 4 nor the transfer's target";

    std::size_t i = count_++;
    if (i == 0)
        firstPc_ = pc;
    if (i % 64 == 0) {
        taken_.push_back(0);
        override_.push_back(0);
    }
    std::uint64_t bit = std::uint64_t(1) << (i % 64);
    if (over) {
        override_.back() |= bit;
        overrideWords_.push_back(word);
    }
    if (e->width)
        effAddrs_.push_back(eff_addr);
    if (taken) {
        taken_.back() |= bit;
        if (e->indirect)
            targets_.push_back(next_pc);
    }
    expectPc_ = next_pc;
    return nullptr;
}

std::shared_ptr<const InstTrace::Chunk>
InstTrace::Chunk::Builder::finish() const
{
    auto c = std::make_shared<Chunk>();
    c->text = text_;
    c->firstPc = firstPc_;
    c->count = count_;
    c->targetCount = targets_.size();
    c->effAddrCount = effAddrs_.size();
    c->overrideCount = overrideWords_.size();
    Layout l = c->layout();
    // Value-initialised, so alignment padding is zero and the block
    // is a deterministic function of the records.
    c->owned = std::make_unique<unsigned char[]>(l.bytes);
    unsigned char *base = c->owned.get();
    auto put = [](unsigned char *dst, const auto &column) {
        if (!column.empty())
            std::memcpy(dst, column.data(),
                        column.size() * sizeof(column[0]));
    };
    put(base, taken_);
    put(base + l.override, override_);
    put(base + l.target, targets_);
    put(base + l.effAddr, effAddrs_);
    put(base + l.overrideWord, overrideWords_);
    c->taken = reinterpret_cast<const std::uint64_t *>(base);
    c->override =
        reinterpret_cast<const std::uint64_t *>(base + l.override);
    c->target = reinterpret_cast<const Addr *>(base + l.target);
    c->effAddr = reinterpret_cast<const Addr *>(base + l.effAddr);
    c->overrideWord =
        reinterpret_cast<const std::uint32_t *>(base + l.overrideWord);
    return c;
}

std::size_t
InstTrace::memoryBytes() const
{
    std::size_t total = output_.capacity() +
                        outputMarks_.capacity() * sizeof(OutputMark);
    for (const auto &c : chunks_)
        total += sizeof(Chunk) + c->bytes();
    if (!chunks_.empty())
        total += sizeof(TextImage) + chunks_.front()->text->bytes();
    return total;
}

std::string
InstTrace::outputPrefix(InstSeq max_insts) const
{
    if (max_insts == 0 || max_insts >= length_)
        return output_;
    // The last mark from a record below max_insts gives the bytes
    // printed by records [0, max_insts).
    auto it = std::lower_bound(
        outputMarks_.begin(), outputMarks_.end(), max_insts,
        [](const OutputMark &m, InstSeq n) { return m.seq < n; });
    std::size_t len =
        it == outputMarks_.begin()
            ? 0
            : static_cast<std::size_t>(std::prev(it)->bytes);
    return output_.substr(0, len);
}

std::shared_ptr<const InstTrace::Chunk>
InstTrace::captureChunk(const std::shared_ptr<const TextImage> &text,
                        FuncSim &sim, InstSeq first_seq,
                        InstSeq records,
                        std::vector<OutputMark> *marks)
{
    Chunk::Builder chunk(text, static_cast<std::size_t>(records));
    DynInst rec;
    std::size_t out_len = sim.output().size();
    for (InstSeq i = 0; i < records && sim.step(&rec); ++i) {
        const char *why = chunk.append(rec.pc, rec.inst, rec.effAddr,
                                       rec.memSize, rec.nextPc);
        panic_if(why, "InstTrace::captureChunk: record %llu: %s",
                 static_cast<unsigned long long>(first_seq + i), why);
        if (marks && sim.output().size() != out_len) {
            out_len = sim.output().size();
            marks->push_back(OutputMark{
                first_seq + i, static_cast<std::uint64_t>(out_len)});
        }
    }
    return chunk.finish();
}

std::shared_ptr<const InstTrace>
InstTrace::capture(const prog::Program &program, InstSeq max_insts)
{
    FuncSim sim(program);
    auto text = std::make_shared<const TextImage>(program);
    auto trace = std::shared_ptr<InstTrace>(new InstTrace());
    InstSeq budget = max_insts ? max_insts : ~static_cast<InstSeq>(0);
    InstSeq n = 0;
    // A running FuncSim always steps, so every chunk is non-empty.
    while (n < budget && !sim.halted()) {
        trace->chunks_.push_back(
            captureChunk(text, sim, n,
                         std::min(budget - n, kChunkRecords),
                         &trace->outputMarks_));
        n += trace->chunks_.back()->size();
    }
    trace->length_ = n;
    trace->halted_ = sim.halted();
    trace->output_ = sim.output();
    return trace;
}

} // namespace func
} // namespace dscalar
