#include "check/program_gen.hh"

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace check {

namespace {

/** Op identities, in OpMix declaration order (== the historical
 *  switch-case order for the first six). */
enum class Op : std::uint8_t {
    LoadAccum,
    StoreData,
    LoadXor,
    BranchSkip,
    CursorMul,
    CursorHash,
    FpMix,
    PrintSyscall,
    AliasStoreLoad,
    ByteOps,
    PageCross
};

std::vector<Op>
buildTable(const OpMix &mix)
{
    std::vector<Op> table;
    table.reserve(mix.total());
    auto put = [&table](Op op, unsigned weight) {
        for (unsigned i = 0; i < weight; ++i)
            table.push_back(op);
    };
    put(Op::LoadAccum, mix.loadAccum);
    put(Op::StoreData, mix.storeData);
    put(Op::LoadXor, mix.loadXor);
    put(Op::BranchSkip, mix.branchSkip);
    put(Op::CursorMul, mix.cursorMul);
    put(Op::CursorHash, mix.cursorHash);
    put(Op::FpMix, mix.fpMix);
    put(Op::PrintSyscall, mix.printSyscall);
    put(Op::AliasStoreLoad, mix.aliasStoreLoad);
    put(Op::ByteOps, mix.byteOps);
    put(Op::PageCross, mix.pageCross);
    return table;
}

/** Largest power of two <= @p v (v >= 1). */
unsigned
floorPow2(unsigned v)
{
    unsigned p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

} // namespace

GenParams
GenParams::fuzzDefault()
{
    GenParams p;
    // Memory ops weighted up; one print op per ~17 draws keeps the
    // output stream growing without dominating runtime.
    p.mix.loadAccum = 2;
    p.mix.storeData = 2;
    p.mix.loadXor = 2;
    p.mix.fpMix = 1;
    p.mix.printSyscall = 1;
    p.mix.aliasStoreLoad = 2;
    p.mix.byteOps = 1;
    p.mix.pageCross = 2;
    return p;
}

std::string
GenParams::validate() const
{
    auto range = [](const char *what, unsigned lo, unsigned hi) {
        return "bad " + std::string(what) + " range [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
    };
    if (mix.total() == 0)
        return "empty op mix";
    if (minDataPages < 1 || minDataPages > maxDataPages)
        return range("data-page", minDataPages, maxDataPages);
    if (maxDataPages > kMaxDataPages)
        return "data-page ceiling " + std::to_string(maxDataPages) +
               " exceeds " + std::to_string(kMaxDataPages) +
               " (4 MB image)";
    if (minIters < 1 || minIters > maxIters)
        return range("iteration", minIters, maxIters);
    if (minBlockOps < 1 || minBlockOps > maxBlockOps)
        return range("block-op", minBlockOps, maxBlockOps);
    return "";
}

ProgramGen::ProgramGen(GenParams params) : params_(params)
{
    std::string error = params_.validate();
    fatal_if(!error.empty(), "%s", error.c_str());
}

prog::Program
ProgramGen::generate(std::uint64_t seed, GenChoices *choices) const
{
    using namespace prog::reg;

    Random rng(seed);
    prog::Program p;
    p.name = "random_" + std::to_string(seed);

    const unsigned data_pages = static_cast<unsigned>(
        rng.range(params_.minDataPages, params_.maxDataPages));
    const std::uint32_t data_bytes = data_pages * prog::pageSize;
    Addr g = p.allocGlobal(data_bytes);
    for (Addr off = 0; off < data_bytes; off += 8)
        p.poke64(g + off, rng.next());

    prog::Assembler a(p);
    a.la(s1, g);
    a.li(s2, 0);                  // checksum
    a.li(s3, static_cast<std::int32_t>(rng.range(17, 8191))); // cursor
    const unsigned iters = static_cast<unsigned>(
        rng.range(params_.minIters, params_.maxIters));
    a.li(s0, static_cast<std::int32_t>(iters));

    a.label("outer");
    const unsigned block = static_cast<unsigned>(
        rng.range(params_.minBlockOps, params_.maxBlockOps));
    const std::vector<Op> table = buildTable(params_.mix);
    for (unsigned i = 0; i < block; ++i) {
        // Derive a legal 8-aligned data offset from the cursor.
        a.li(t6, static_cast<std::int32_t>((data_bytes / 8) - 1));
        a.and_(t0, s3, t6);
        a.slli(t0, t0, 3);
        a.add(t0, s1, t0);
        Op op = table[rng.below(table.size())];
        // PageCross needs two pages to straddle.
        if (op == Op::PageCross && data_pages < 2)
            op = Op::LoadAccum;
        switch (op) {
          case Op::LoadAccum:
            a.ld(t1, t0, 0);
            a.add(s2, s2, t1);
            break;
          case Op::StoreData:
            a.sd(s2, t0, 0);
            break;
          case Op::LoadXor:
            a.lw(t1, t0, 0);
            a.xor_(s2, s2, t1);
            break;
          case Op::BranchSkip: {
            // Data-dependent short forward branch.
            std::string skip = a.genLabel("skip");
            a.andi(t1, s2, 1);
            a.beq(t1, zero, skip);
            a.addi(s2, s2, 3);
            a.label(skip);
            break;
          }
          case Op::CursorMul:
            a.li(t1, static_cast<std::int32_t>(rng.range(3, 9973)));
            a.mul(s3, s3, t1);
            a.addi(s3, s3, 7);
            break;
          case Op::CursorHash:
            a.add(s3, s3, s2);
            a.srli(t1, s3, 3);
            a.xor_(s3, s3, t1);
            break;
          case Op::FpMix:
            // Int -> FP -> int chain; CVTFI defines out-of-range
            // conversions as 0, so the checksum stays deterministic.
            a.ld(t1, t0, 0);
            a.cvtif(t1, t1);
            a.cvtif(t2, s2);
            a.fadd(t1, t1, t2);
            a.fmul(t1, t1, t1);
            a.fslt(t2, t2, t1);
            a.cvtfi(t1, t1);
            a.xor_(s2, s2, t1);
            a.add(s2, s2, t2);
            break;
          case Op::PrintSyscall:
            a.andi(a0, s2, 0xff);
            a.syscall(isa::Syscall::PrintInt);
            break;
          case Op::AliasStoreLoad:
            // Same-address store/load pair plus an overlapping
            // narrower reload: forwarding and same-line pressure.
            a.sd(s2, t0, 0);
            a.ld(t1, t0, 0);
            a.add(s2, s2, t1);
            a.lw(t2, t0, 4);
            a.xor_(s2, s2, t2);
            break;
          case Op::ByteOps:
            a.sb(s2, t0, 3);
            a.lbu(t1, t0, 3);
            a.add(s2, s2, t1);
            break;
          case Op::PageCross: {
            // Access pair straddling the boundary below page k,
            // k in [1, data_pages-1] derived from the cursor.
            const unsigned pow2 = floorPow2(data_pages - 1);
            a.li(t6, static_cast<std::int32_t>(pow2 - 1));
            a.and_(t1, s3, t6);
            a.addi(t1, t1, 1);
            a.slli(t1, t1, 13); // * pageSize (8 KB)
            a.add(t1, s1, t1);
            a.ld(t2, t1, -8);   // last dword of page k-1
            a.ld(t3, t1, 0);    // first dword of page k
            a.add(s2, s2, t2);
            a.xor_(s2, s2, t3);
            break;
          }
        }
    }
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "outer");

    a.li(t0, 0xffff);
    a.and_(a0, s2, t0);
    a.syscall(isa::Syscall::PrintInt);
    a.syscall(isa::Syscall::Exit);
    a.halt();
    a.finalize();

    if (choices) {
        choices->dataPages = data_pages;
        choices->iters = iters;
        choices->blockOps = block;
    }
    return p;
}

} // namespace check
} // namespace dscalar
