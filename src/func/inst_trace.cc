#include "func/inst_trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dscalar {
namespace func {

std::size_t
InstTrace::Chunk::bytes() const
{
    return pcStore.capacity() * sizeof(Addr) +
           wordStore.capacity() * sizeof(std::uint32_t) +
           effAddrStore.capacity() * sizeof(Addr) +
           memSizeStore.capacity() * sizeof(std::uint8_t) +
           nextPcStore.capacity() * sizeof(Addr);
}

void
InstTrace::Chunk::seal()
{
    if (!pc)
        pc = pcStore.data();
    if (!word)
        word = wordStore.data();
    if (!effAddr)
        effAddr = effAddrStore.data();
    if (!memSize)
        memSize = memSizeStore.data();
    if (!nextPc)
        nextPc = nextPcStore.data();
    // A loader that borrows every column sets count itself; owned
    // chunks derive it from their longest store.
    count = std::max({count, pcStore.size(), wordStore.size(),
                      effAddrStore.size(), memSizeStore.size(),
                      nextPcStore.size()});
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

std::shared_ptr<const InstTrace>
InstTrace::fromParts(Parts &&parts)
{
    auto trace = std::shared_ptr<InstTrace>(new InstTrace());
    InstSeq total = 0;
    for (const auto &c : parts.chunks) {
        panic_if(!c || !c->pc || c->count == 0,
                 "InstTrace::fromParts: unsealed or empty chunk");
        total += c->count;
    }
    panic_if(total != parts.length,
             "InstTrace::fromParts: chunks cover %llu records, "
             "expected %llu",
             static_cast<unsigned long long>(total),
             static_cast<unsigned long long>(parts.length));
    trace->chunks_ = std::move(parts.chunks);
    trace->length_ = parts.length;
    trace->halted_ = parts.halted;
    trace->output_ = std::move(parts.output);
    trace->outputMarks_ = std::move(parts.outputMarks);
    return trace;
}

std::shared_ptr<const InstTrace::Chunk>
InstTrace::captureChunk(FuncSim &sim, InstSeq first_seq,
                        InstSeq records,
                        std::vector<OutputMark> *marks)
{
    auto c = std::make_shared<Chunk>();
    std::size_t reserve = static_cast<std::size_t>(records);
    c->pcStore.reserve(reserve);
    c->wordStore.reserve(reserve);
    c->effAddrStore.reserve(reserve);
    c->memSizeStore.reserve(reserve);
    c->nextPcStore.reserve(reserve);
    DynInst rec;
    std::size_t out_len = sim.output().size();
    for (InstSeq i = 0; i < records && sim.step(&rec); ++i) {
        c->pcStore.push_back(rec.pc);
        // encode() round-trips through decode(), so the stored word
        // reproduces the retired instruction exactly.
        c->wordStore.push_back(isa::encode(rec.inst));
        c->effAddrStore.push_back(rec.effAddr);
        c->memSizeStore.push_back(
            static_cast<std::uint8_t>(rec.memSize));
        c->nextPcStore.push_back(rec.nextPc);
        if (marks && sim.output().size() != out_len) {
            out_len = sim.output().size();
            marks->push_back(OutputMark{
                first_seq + i, static_cast<std::uint64_t>(out_len)});
        }
    }
    c->seal();
    return c;
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
