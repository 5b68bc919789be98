/** @file Unit tests for the functional simulator's ISA semantics. */

#include <gtest/gtest.h>

#include <cstring>

#include "driver/run_request.hh"
#include "func/func_sim.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace func {
namespace {

using namespace prog::reg;
using prog::Assembler;
using prog::Program;

/** Assemble, run, return the simulator. */
FuncSim
run(const std::function<void(Program &, Assembler &)> &body)
{
    Program p;
    Assembler a(p);
    body(p, a);
    a.halt();
    a.finalize();
    FuncSim sim(p);
    sim.run(1'000'000);
    EXPECT_TRUE(sim.halted());
    return sim;
}

TEST(FuncSim, IntegerArithmetic)
{
    auto sim = run([](Program &, Assembler &a) {
        a.li(t0, 100);
        a.li(t1, 7);
        a.add(s0, t0, t1);   // 107
        a.sub(s1, t0, t1);   // 93
        a.mul(s2, t0, t1);   // 700
        a.div(s3, t0, t1);   // 14
        a.rem(s4, t0, t1);   // 2
    });
    EXPECT_EQ(sim.reg(s0), 107u);
    EXPECT_EQ(sim.reg(s1), 93u);
    EXPECT_EQ(sim.reg(s2), 700u);
    EXPECT_EQ(sim.reg(s3), 14u);
    EXPECT_EQ(sim.reg(s4), 2u);
}

TEST(FuncSim, DivisionByZeroIsZero)
{
    auto sim = run([](Program &, Assembler &a) {
        a.li(t0, 5);
        a.li(t1, 0);
        a.div(s0, t0, t1);
        a.rem(s1, t0, t1);
    });
    EXPECT_EQ(sim.reg(s0), 0u);
    EXPECT_EQ(sim.reg(s1), 0u);
}

TEST(FuncSim, SignedDivisionAndShifts)
{
    auto sim = run([](Program &, Assembler &a) {
        a.li(t0, -100);
        a.li(t1, 7);
        a.div(s0, t0, t1);   // -14 (trunc toward zero)
        a.li(t2, -8);
        a.srai(s1, t2, 1);   // -4 arithmetic
        a.li(t3, 1);
        a.slli(s2, t3, 40);  // 64-bit shift
        a.srli(s3, t2, 1);   // logical: huge positive
    });
    EXPECT_EQ(static_cast<std::int64_t>(sim.reg(s0)), -14);
    EXPECT_EQ(static_cast<std::int64_t>(sim.reg(s1)), -4);
    EXPECT_EQ(sim.reg(s2), 1ULL << 40);
    EXPECT_EQ(sim.reg(s3), static_cast<std::uint64_t>(-8) >> 1);
}

TEST(FuncSim, SetLessThan)
{
    auto sim = run([](Program &, Assembler &a) {
        a.li(t0, -1);
        a.li(t1, 1);
        a.slt(s0, t0, t1);   // signed: -1 < 1 -> 1
        a.sltu(s1, t0, t1);  // unsigned: huge > 1 -> 0
        a.slti(s2, t1, 100); // 1 < 100 -> 1
    });
    EXPECT_EQ(sim.reg(s0), 1u);
    EXPECT_EQ(sim.reg(s1), 0u);
    EXPECT_EQ(sim.reg(s2), 1u);
}

TEST(FuncSim, FloatingPoint)
{
    auto sim = run([](Program &p, Assembler &a) {
        Addr c = p.allocGlobal(16);
        p.pokeDouble(c, 2.5);
        p.pokeDouble(c + 8, 0.5);
        a.la(s7, c);
        a.ld(t0, s7, 0);
        a.ld(t1, s7, 8);
        a.fadd(s0, t0, t1);  // 3.0
        a.fmul(s1, t0, t1);  // 1.25
        a.fdiv(s2, t0, t1);  // 5.0
        a.fsub(s3, t0, t1);  // 2.0
        a.fslt(s4, t1, t0);  // 0.5 < 2.5 -> 1
        a.cvtfi(s5, s2);     // 5
        a.li(t2, 9);
        a.cvtif(s6, t2);     // 9.0 -> compare via fslt
    });
    auto as_double = [&](RegIndex r) {
        double d;
        std::uint64_t b = sim.reg(r);
        std::memcpy(&d, &b, 8);
        return d;
    };
    EXPECT_DOUBLE_EQ(as_double(s0), 3.0);
    EXPECT_DOUBLE_EQ(as_double(s1), 1.25);
    EXPECT_DOUBLE_EQ(as_double(s2), 5.0);
    EXPECT_DOUBLE_EQ(as_double(s3), 2.0);
    EXPECT_EQ(sim.reg(s4), 1u);
    EXPECT_EQ(sim.reg(s5), 5u);
    EXPECT_DOUBLE_EQ(as_double(s6), 9.0);
}

TEST(FuncSim, R0IsAlwaysZero)
{
    auto sim = run([](Program &, Assembler &a) {
        a.li(t0, 55);
        a.add(zero, t0, t0); // write to r0 dropped
        a.add(s0, zero, zero);
    });
    EXPECT_EQ(sim.reg(zero), 0u);
    EXPECT_EQ(sim.reg(s0), 0u);
}

TEST(FuncSim, LoadStoreWidths)
{
    auto sim = run([](Program &p, Assembler &a) {
        Addr g = p.allocGlobal(32);
        a.la(s7, g);
        a.li(t0, -1);
        a.sd(t0, s7, 0);
        a.lw(s0, s7, 0);  // zero-extended 32-bit
        a.ld(s1, s7, 0);
        a.li(t1, 0x1234);
        a.sw(t1, s7, 16);
        a.ld(s2, s7, 16); // upper half zero
    });
    EXPECT_EQ(sim.reg(s0), 0xffffffffULL);
    EXPECT_EQ(sim.reg(s1), ~0ULL);
    EXPECT_EQ(sim.reg(s2), 0x1234u);
}

TEST(FuncSim, SyscallOutput)
{
    auto sim = run([](Program &, Assembler &a) {
        a.li(a0, -7);
        a.syscall(isa::Syscall::PrintInt);
        a.li(a0, 'h');
        a.syscall(isa::Syscall::PrintChar);
        a.li(a0, 'i');
        a.syscall(isa::Syscall::PrintChar);
    });
    EXPECT_EQ(sim.output(), "-7\nhi");
}

TEST(FuncSim, PokedTextPageKeepsItsInstructions)
{
    // A poke beside the text, on its page, must leave every
    // instruction in place; a poke into the text replaces its word.
    Program nine;
    Assembler b(nine);
    b.li(a0, 9);
    b.finalize();
    for (bool into_text : {false, true}) {
        auto p = std::make_shared<Program>();
        Assembler a(*p);
        a.li(a0, 7);
        a.syscall(isa::Syscall::PrintInt);
        a.halt();
        a.finalize();
        if (into_text)
            p->poke32(p->textBaseAddr(), nine.textWord(0));
        else
            p->poke32(p->textBaseAddr() + 0x1000, 0xdeadbeef);
        const std::string want = into_text ? "9\n" : "7\n";

        FuncSim sim(*p);
        sim.run(100);
        EXPECT_EQ(sim.output(), want) << "into_text=" << into_text;

        driver::RunRequest req;
        req.system = driver::SystemKind::Perfect;
        req.program = p;
        driver::RunResponse resp = driver::runOne(req);
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_EQ(resp.output, want) << "into_text=" << into_text;
    }
}

TEST(FuncSim, ExitSyscallHalts)
{
    prog::Program p;
    Assembler a(p);
    a.syscall(isa::Syscall::Exit);
    a.li(t0, 99); // never executed
    a.halt();
    a.finalize();
    FuncSim sim(p);
    sim.run(100);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.reg(t0), 0u);
    EXPECT_EQ(sim.retired(), 1u);
}

TEST(FuncSim, MemHookSeesAllDataAccesses)
{
    prog::Program p;
    Addr g = p.allocGlobal(64);
    Assembler a(p);
    a.la(s1, g);
    a.lw(t0, s1, 0);
    a.sw(t0, s1, 4);
    a.ld(t1, s1, 8);
    a.sd(t1, s1, 16);
    a.halt();
    a.finalize();

    FuncSim sim(p);
    std::vector<std::tuple<Addr, unsigned, bool>> accesses;
    sim.setMemHook([&](Addr addr, unsigned size, bool w) {
        accesses.emplace_back(addr, size, w);
    });
    sim.run(100);
    ASSERT_EQ(accesses.size(), 4u);
    EXPECT_EQ(accesses[0], std::make_tuple(g, 4u, false));
    EXPECT_EQ(accesses[1], std::make_tuple(g + 4, 4u, true));
    EXPECT_EQ(accesses[2], std::make_tuple(g + 8, 8u, false));
    EXPECT_EQ(accesses[3], std::make_tuple(g + 16, 8u, true));
}

TEST(FuncSim, FetchHookSeesEveryPc)
{
    prog::Program p;
    Assembler a(p);
    a.nop();
    a.nop();
    a.halt();
    a.finalize();
    FuncSim sim(p);
    std::vector<Addr> pcs;
    sim.setFetchHook([&](Addr pc) { pcs.push_back(pc); });
    sim.run(100);
    ASSERT_EQ(pcs.size(), 3u);
    EXPECT_EQ(pcs[0], p.textBaseAddr());
    EXPECT_EQ(pcs[1], p.textBaseAddr() + 4);
}

TEST(FuncSim, DynInstRecordsMemAndControl)
{
    prog::Program p;
    Addr g = p.allocGlobal(16);
    Assembler a(p);
    a.la(s1, g);     // 2 insts (lui/ori)
    a.lw(t0, s1, 8);
    a.j("end");
    a.nop();
    a.label("end");
    a.halt();
    a.finalize();

    FuncSim sim(p);
    DynInst rec;
    sim.step(&rec); // la -> single lui (low halfword is zero)
    EXPECT_EQ(rec.effAddr, invalidAddr);
    sim.step(&rec); // lw
    EXPECT_EQ(rec.effAddr, g + 8);
    EXPECT_EQ(rec.memSize, 4u);
    EXPECT_EQ(rec.nextPc, rec.pc + 4);
    sim.step(&rec); // j over the nop
    EXPECT_EQ(rec.nextPc, p.textBaseAddr() + 4 * 4);
}

} // namespace
} // namespace func
} // namespace dscalar

namespace dscalar {
namespace func {
namespace {

TEST(FuncSimDeath, UnknownSyscallIsFatal)
{
    prog::Program p;
    prog::Assembler a(p);
    isa::Instruction bad;
    bad.op = isa::Opcode::SYSCALL;
    bad.imm = 999;
    a.emit(bad);
    a.halt();
    a.finalize();
    FuncSim sim(p);
    EXPECT_EXIT(sim.run(10), ::testing::ExitedWithCode(1),
                "unknown syscall");
}

} // namespace
} // namespace func
} // namespace dscalar
