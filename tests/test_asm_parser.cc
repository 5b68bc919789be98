/** @file Tests for the text-assembly frontend. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "func/func_sim.hh"
#include "prog/asm_parser.hh"

namespace dscalar {
namespace prog {
namespace {

func::FuncSim
runSource(const std::string &src)
{
    Program p = assembleSource(src);
    func::FuncSim sim(p);
    sim.run(1'000'000);
    EXPECT_TRUE(sim.halted());
    return sim;
}

TEST(AsmParser, ArithmeticAndOutput)
{
    auto sim = runSource(R"(
        li   t0, 6
        li   t1, 7
        mul  a0, t0, t1
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "42\n");
}

TEST(AsmParser, LabelsAndLoops)
{
    auto sim = runSource(R"(
        li   s0, 5
        li   s1, 0
loop:   add  s1, s1, s0
        addi s0, s0, -1
        bne  s0, zero, loop
        move a0, s1
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "15\n");
}

TEST(AsmParser, DataDirectivesAndMemory)
{
    auto sim = runSource(R"(
        .global vec, 64
        .word   vec, 0, 11
        .word   vec, 4, 31
        .dword  vec, 8, 1000

        la   s1, vec
        lw   t0, 0(s1)
        lw   t1, 4(s1)
        ld   t2, 8(s1)
        add  a0, t0, t1
        add  a0, a0, t2
        syscall 1
        sw   a0, 16(s1)
        halt
    )");
    EXPECT_EQ(sim.output(), "1042\n");
}

TEST(AsmParser, DoubleDirectiveAndFp)
{
    auto sim = runSource(R"(
        .global c, 16
        .double c, 0, 2.5
        .double c, 8, 4.0

        la    s1, c
        ld    t0, 0(s1)
        ld    t1, 8(s1)
        fmul  t2, t0, t1
        cvtfi a0, t2
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "10\n");
}

TEST(AsmParser, SymbolPlusOffsetAndHeap)
{
    auto sim = runSource(R"(
        .heap  cell, 32
        .word  cell, 12, 77
        la     s1, cell+12
        lw     a0, 0(s1)
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "77\n");
}

TEST(AsmParser, CommentsAndBlankLines)
{
    auto sim = runSource(R"(
        ; full-line comment
        # another comment style

        li a0, 9   ; trailing comment
        syscall 1  # trailing comment
        halt
    )");
    EXPECT_EQ(sim.output(), "9\n");
}

TEST(AsmParser, JumpAndLink)
{
    auto sim = runSource(R"(
        li   t0, 1
        jal  fn
        addi t0, t0, 10
        move a0, t0
        syscall 1
        halt
fn:     addi t0, t0, 100
        jr   ra
    )");
    EXPECT_EQ(sim.output(), "111\n");
}

TEST(AsmParser, ByteOps)
{
    auto sim = runSource(R"(
        .global s, 16
        .word   s, 0, 0x636261   ; "abc"
        la   s1, s
        lbu  t0, 1(s1)
        sb   t0, 8(s1)
        lbu  a0, 8(s1)
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "98\n"); // 'b'
}

TEST(AsmParser, MultipleLabelsOneLine)
{
    auto sim = runSource(R"(
        li a0, 3
a1: a2: syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "3\n");
}

TEST(AsmParser, StackAndTextDirectives)
{
    Program p = assembleSource(R"(
        .text                    ; accepted, no effect
        .stack 32768
        li   a0, 4
        syscall 1
        halt
    )");
    EXPECT_EQ(p.stackSize, 32768u);
    func::FuncSim sim(p);
    sim.run(100);
    EXPECT_EQ(sim.output(), "4\n");
}

TEST(AsmParser, LoadUpperImmediate)
{
    // The RI format: rd, imm16 into bits 31:16.
    auto sim = runSource(R"(
        lui  a0, 3
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "196608\n");
}

TEST(AsmParser, BranchesAndJump)
{
    // beq/bne/blt/bge taken and not taken, and a j over dead code.
    auto sim = runSource(R"(
        li   t0, 3
        li   t1, 5
        li   a0, 0
        beq  t0, t1, bad
        beq  t0, t0, eq
        j    bad
eq:     blt  t1, t0, bad
        blt  t0, t1, lt
        j    bad
lt:     bge  t0, t1, bad
        bge  t1, t0, ge
        j    bad
ge:     bne  t0, t0, bad
        addi a0, a0, 1
        j    out
bad:    li   a0, 99
out:    syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "1\n");
}

TEST(AsmParserDeath, BadInteger)
{
    EXPECT_EXIT(assembleSource("li t0, 12abc\nhalt\n"),
                ::testing::ExitedWithCode(1),
                "asm line 1: bad integer '12abc'");
}

TEST(AsmParserDeath, BadMemoryOperand)
{
    EXPECT_EXIT(assembleSource("nop\nlw t0, 4t1\nhalt\n"),
                ::testing::ExitedWithCode(1),
                "asm line 2: bad memory operand '4t1'");
}

TEST(AsmParserDeath, UnknownMnemonic)
{
    EXPECT_EXIT(assembleSource("frobnicate t0, t1\nhalt\n"),
                ::testing::ExitedWithCode(1), "unknown mnemonic");
}

TEST(AsmParserDeath, BadRegister)
{
    EXPECT_EXIT(assembleSource("add r99, t0, t1\nhalt\n"),
                ::testing::ExitedWithCode(1), "bad register");
}

TEST(AsmParserDeath, UnknownSymbol)
{
    EXPECT_EXIT(assembleSource("la t0, nothere\nhalt\n"),
                ::testing::ExitedWithCode(1), "unknown symbol");
}

TEST(AsmParserDeath, WrongOperandCount)
{
    EXPECT_EXIT(assembleSource("add t0, t1\nhalt\n"),
                ::testing::ExitedWithCode(1), "expects 3");
}

TEST(AsmParserDeath, ErrorsCarryLineNumbers)
{
    EXPECT_EXIT(assembleSource("nop\nnop\nbogus\n"),
                ::testing::ExitedWithCode(1), "line 3");
}

TEST(AsmParser, AssembleFileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/dsasm_test.s";
    {
        std::ofstream out(path);
        out << "li a0, 123\nsyscall 1\nhalt\n";
    }
    Program p = assembleFile(path);
    func::FuncSim sim(p);
    sim.run(100);
    EXPECT_EQ(sim.output(), "123\n");
    std::remove(path.c_str());
}

TEST(AsmParserDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(assembleFile("/nonexistent/nope.s"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(AsmParser, RegisterAliasesMatchNumbers)
{
    auto sim = runSource(R"(
        li   r8, 5
        move a0, t0    ; t0 == r8
        syscall 1
        halt
    )");
    EXPECT_EQ(sim.output(), "5\n");
}

} // namespace
} // namespace prog
} // namespace dscalar
