#include "func/inst_trace.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace dscalar {
namespace func {

InstTrace::Chunk::Layout
InstTrace::Chunk::layout(std::size_t count, std::size_t next_pcs,
                         std::size_t eff_addrs)
{
    Layout l{};
    l.nonSeq = (count * sizeof(std::uint32_t) + 7) & ~std::size_t(7);
    l.nextPc = l.nonSeq + (count + 63) / 64 * sizeof(std::uint64_t);
    l.effAddr = l.nextPc + next_pcs * sizeof(Addr);
    l.bytes = l.effAddr + eff_addrs * sizeof(Addr);
    return l;
}

InstTrace::Chunk::Builder::Builder(std::size_t reserve)
{
    words_.reserve(reserve);
    nonSeq_.reserve((reserve + 63) / 64);
    nextPcs_.reserve(reserve);
    effAddrs_.reserve(reserve);
}

const char *
InstTrace::Chunk::Builder::append(Addr pc, std::uint32_t word,
                                  Addr eff_addr, unsigned mem_size,
                                  Addr next_pc)
{
    if (!words_.empty() && pc != expectPc_)
        return "pc is not the previous record's nextPc";
    unsigned width = isa::memWidth(word);
    if (mem_size != width || (!width && eff_addr != invalidAddr))
        return "memSize or effAddr is not what the opcode implies";

    std::size_t i = words_.size();
    if (i == 0)
        firstPc_ = pc;
    if (i % 64 == 0)
        nonSeq_.push_back(0);
    words_.push_back(word);
    if (width)
        effAddrs_.push_back(eff_addr);
    if (next_pc != pc + 4) {
        nonSeq_.back() |= std::uint64_t(1) << (i % 64);
        nextPcs_.push_back(next_pc);
    }
    expectPc_ = next_pc;
    return nullptr;
}

std::shared_ptr<const InstTrace::Chunk>
InstTrace::Chunk::Builder::finish() const
{
    auto c = std::make_shared<Chunk>();
    c->firstPc = firstPc_;
    c->count = words_.size();
    c->nextPcCount = nextPcs_.size();
    c->effAddrCount = effAddrs_.size();
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
    put(base, words_);
    put(base + l.nonSeq, nonSeq_);
    put(base + l.nextPc, nextPcs_);
    put(base + l.effAddr, effAddrs_);
    c->word = reinterpret_cast<const std::uint32_t *>(base);
    c->nonSeq = reinterpret_cast<const std::uint64_t *>(base + l.nonSeq);
    c->nextPc = reinterpret_cast<const Addr *>(base + l.nextPc);
    c->effAddr = reinterpret_cast<const Addr *>(base + l.effAddr);
    return c;
}

std::size_t
InstTrace::memoryBytes() const
{
    std::size_t total = output_.capacity() +
                        outputMarks_.capacity() * sizeof(OutputMark);
    for (const auto &c : chunks_)
        total += sizeof(Chunk) + c->bytes();
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
InstTrace::captureChunk(FuncSim &sim, InstSeq first_seq,
                        InstSeq records,
                        std::vector<OutputMark> *marks)
{
    Chunk::Builder chunk(static_cast<std::size_t>(records));
    DynInst rec;
    std::size_t out_len = sim.output().size();
    for (InstSeq i = 0; i < records && sim.step(&rec); ++i) {
        // encode() round-trips through decode(), so the stored word
        // reproduces the retired instruction exactly.
        const char *why =
            chunk.append(rec.pc, isa::encode(rec.inst), rec.effAddr,
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
    auto trace = std::shared_ptr<InstTrace>(new InstTrace());
    InstSeq budget = max_insts ? max_insts : ~static_cast<InstSeq>(0);
    InstSeq n = 0;
    // A running FuncSim always steps, so every chunk is non-empty.
    while (n < budget && !sim.halted()) {
        trace->chunks_.push_back(
            captureChunk(sim, n, std::min(budget - n, kChunkRecords),
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
