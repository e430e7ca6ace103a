/** @file Unit tests for the ISA layer and setup-instruction encoding. */

#include <gtest/gtest.h>

#include <iterator>

#include "isa/isa.h"
#include "isa/setup_encoding.h"

namespace noreba {
namespace {

TEST(Isa, LoadStoreClassification)
{
    for (Opcode op : {Opcode::LB, Opcode::LH, Opcode::LW, Opcode::LD,
                      Opcode::FLW, Opcode::FLD}) {
        EXPECT_TRUE(isLoad(op)) << opcodeName(op);
        EXPECT_FALSE(isStore(op));
        EXPECT_TRUE(isMem(op));
    }
    for (Opcode op : {Opcode::SB, Opcode::SH, Opcode::SW, Opcode::SD,
                      Opcode::FSW, Opcode::FSD}) {
        EXPECT_TRUE(isStore(op)) << opcodeName(op);
        EXPECT_FALSE(isLoad(op));
    }
    EXPECT_FALSE(isMem(Opcode::ADD));
}

TEST(Isa, ControlClassification)
{
    for (Opcode op : {Opcode::BEQ, Opcode::BNE, Opcode::BLT,
                      Opcode::BGE, Opcode::BLTU, Opcode::BGEU}) {
        EXPECT_TRUE(isCondBranch(op));
        EXPECT_TRUE(isControl(op));
    }
    EXPECT_TRUE(isJump(Opcode::JAL));
    EXPECT_TRUE(isJump(Opcode::JALR));
    EXPECT_FALSE(isCondBranch(Opcode::JAL));
    EXPECT_FALSE(isControl(Opcode::ADD));
}

TEST(Isa, SetupAndCitOps)
{
    EXPECT_TRUE(isSetup(Opcode::SET_BRANCH_ID));
    EXPECT_TRUE(isSetup(Opcode::SET_DEPENDENCY));
    EXPECT_FALSE(isSetup(Opcode::GET_CIT_ENTRY));
    EXPECT_TRUE(isCitOp(Opcode::GET_CIT_ENTRY));
    EXPECT_TRUE(isCitOp(Opcode::SET_CIT_ENTRY));
}

TEST(Isa, OnlyMemoryRaises)
{
    // RISC-V FP exceptions accrue in fcsr and never trap (Section 4.4).
    EXPECT_TRUE(mayRaiseException(Opcode::LW));
    EXPECT_TRUE(mayRaiseException(Opcode::SD));
    EXPECT_FALSE(mayRaiseException(Opcode::FDIV));
    EXPECT_FALSE(mayRaiseException(Opcode::FSQRT));
    EXPECT_FALSE(mayRaiseException(Opcode::ADD));
    EXPECT_FALSE(mayRaiseException(Opcode::BEQ));
}

TEST(Isa, FuClasses)
{
    EXPECT_EQ(fuClass(Opcode::ADD), FuClass::IntAlu);
    EXPECT_EQ(fuClass(Opcode::MUL), FuClass::IntMul);
    EXPECT_EQ(fuClass(Opcode::DIV), FuClass::IntDiv);
    EXPECT_EQ(fuClass(Opcode::FADD), FuClass::FpAlu);
    EXPECT_EQ(fuClass(Opcode::FMADD), FuClass::FpMul);
    EXPECT_EQ(fuClass(Opcode::FSQRT), FuClass::FpDiv);
    EXPECT_EQ(fuClass(Opcode::LW), FuClass::MemRead);
    EXPECT_EQ(fuClass(Opcode::SW), FuClass::MemWrite);
    EXPECT_EQ(fuClass(Opcode::BNE), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::JALR), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::SET_BRANCH_ID), FuClass::None);
    EXPECT_EQ(fuClass(Opcode::NOP), FuClass::None);
}

TEST(Isa, LatenciesAreOrdered)
{
    EXPECT_EQ(execLatency(Opcode::ADD), 1);
    EXPECT_GT(execLatency(Opcode::MUL), execLatency(Opcode::ADD));
    EXPECT_GT(execLatency(Opcode::DIV), execLatency(Opcode::MUL));
    EXPECT_GT(execLatency(Opcode::FDIV), execLatency(Opcode::FADD));
    EXPECT_EQ(execLatency(Opcode::SET_DEPENDENCY), 0);
}

TEST(Isa, MemAccessSizes)
{
    EXPECT_EQ(memAccessSize(Opcode::LB), 1);
    EXPECT_EQ(memAccessSize(Opcode::LH), 2);
    EXPECT_EQ(memAccessSize(Opcode::LW), 4);
    EXPECT_EQ(memAccessSize(Opcode::LD), 8);
    EXPECT_EQ(memAccessSize(Opcode::FSD), 8);
    EXPECT_EQ(memAccessSize(Opcode::ADD), 0);
}

/** One opcode's expected classes, written out literally so that the
 *  constexpr table in isa.h cannot drift unnoticed. */
struct ExpectedOpcode
{
    Opcode op;
    bool load, store, setup, condBranch, jump, fp, cit;
    FuClass fu;
    int latency;
    int memBytes;
};

TEST(Isa, OpcodeTableMatchesLiteralExpectations)
{
    // Columns: load store setup condBranch jump float cit | fu
    // latency memBytes. Rows in enum order, one per opcode.
    const ExpectedOpcode expected[] = {
        {Opcode::ADD, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SUB, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::AND, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::OR, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::XOR, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SLL, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SRL, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SRA, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SLT, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SLTU, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::LUI, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::AUIPC, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::MUL, 0, 0, 0, 0, 0, 0, 0, FuClass::IntMul, 3, 0},
        {Opcode::MULH, 0, 0, 0, 0, 0, 0, 0, FuClass::IntMul, 3, 0},
        {Opcode::DIV, 0, 0, 0, 0, 0, 0, 0, FuClass::IntDiv, 12, 0},
        {Opcode::REM, 0, 0, 0, 0, 0, 0, 0, FuClass::IntDiv, 12, 0},
        {Opcode::LB, 1, 0, 0, 0, 0, 0, 0, FuClass::MemRead, 1, 1},
        {Opcode::LH, 1, 0, 0, 0, 0, 0, 0, FuClass::MemRead, 1, 2},
        {Opcode::LW, 1, 0, 0, 0, 0, 0, 0, FuClass::MemRead, 1, 4},
        {Opcode::LD, 1, 0, 0, 0, 0, 0, 0, FuClass::MemRead, 1, 8},
        {Opcode::FLW, 1, 0, 0, 0, 0, 1, 0, FuClass::MemRead, 1, 4},
        {Opcode::FLD, 1, 0, 0, 0, 0, 1, 0, FuClass::MemRead, 1, 8},
        {Opcode::SB, 0, 1, 0, 0, 0, 0, 0, FuClass::MemWrite, 1, 1},
        {Opcode::SH, 0, 1, 0, 0, 0, 0, 0, FuClass::MemWrite, 1, 2},
        {Opcode::SW, 0, 1, 0, 0, 0, 0, 0, FuClass::MemWrite, 1, 4},
        {Opcode::SD, 0, 1, 0, 0, 0, 0, 0, FuClass::MemWrite, 1, 8},
        {Opcode::FSW, 0, 1, 0, 0, 0, 1, 0, FuClass::MemWrite, 1, 4},
        {Opcode::FSD, 0, 1, 0, 0, 0, 1, 0, FuClass::MemWrite, 1, 8},
        {Opcode::BEQ, 0, 0, 0, 1, 0, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::BNE, 0, 0, 0, 1, 0, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::BLT, 0, 0, 0, 1, 0, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::BGE, 0, 0, 0, 1, 0, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::BLTU, 0, 0, 0, 1, 0, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::BGEU, 0, 0, 0, 1, 0, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::JAL, 0, 0, 0, 0, 1, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::JALR, 0, 0, 0, 0, 1, 0, 0, FuClass::Branch, 1, 0},
        {Opcode::FADD, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FSUB, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FMUL, 0, 0, 0, 0, 0, 1, 0, FuClass::FpMul, 4, 0},
        {Opcode::FDIV, 0, 0, 0, 0, 0, 1, 0, FuClass::FpDiv, 12, 0},
        {Opcode::FSQRT, 0, 0, 0, 0, 0, 1, 0, FuClass::FpDiv, 12, 0},
        {Opcode::FMADD, 0, 0, 0, 0, 0, 1, 0, FuClass::FpMul, 4, 0},
        {Opcode::FMIN, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FMAX, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FCVT_D_L, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FCVT_L_D, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FEQ, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FLT, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FLE, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FMV, 0, 0, 0, 0, 0, 1, 0, FuClass::FpAlu, 3, 0},
        {Opcode::FENCE, 0, 0, 0, 0, 0, 0, 0, FuClass::IntAlu, 1, 0},
        {Opcode::SET_BRANCH_ID, 0, 0, 1, 0, 0, 0, 0, FuClass::None, 0, 0},
        {Opcode::SET_DEPENDENCY, 0, 0, 1, 0, 0, 0, 0, FuClass::None, 0, 0},
        {Opcode::GET_CIT_ENTRY, 0, 0, 0, 0, 0, 0, 1, FuClass::IntAlu, 1, 0},
        {Opcode::SET_CIT_ENTRY, 0, 0, 0, 0, 0, 0, 1, FuClass::IntAlu, 1, 0},
        {Opcode::NOP, 0, 0, 0, 0, 0, 0, 0, FuClass::None, 0, 0},
        {Opcode::HALT, 0, 0, 0, 0, 0, 0, 0, FuClass::None, 0, 0},
    };
    ASSERT_EQ(std::size(expected),
              static_cast<size_t>(Opcode::NUM_OPCODES));
    for (size_t i = 0; i < std::size(expected); ++i) {
        const ExpectedOpcode &e = expected[i];
        ASSERT_EQ(static_cast<size_t>(e.op), i) << "row order";
        SCOPED_TRACE(opcodeName(e.op));
        EXPECT_EQ(isLoad(e.op), e.load);
        EXPECT_EQ(isStore(e.op), e.store);
        EXPECT_EQ(isMem(e.op), e.load || e.store);
        EXPECT_EQ(mayRaiseException(e.op), e.load || e.store);
        EXPECT_EQ(isSetup(e.op), e.setup);
        EXPECT_EQ(isCondBranch(e.op), e.condBranch);
        EXPECT_EQ(isJump(e.op), e.jump);
        EXPECT_EQ(isControl(e.op), e.condBranch || e.jump);
        EXPECT_EQ(isFloat(e.op), e.fp);
        EXPECT_EQ(isCitOp(e.op), e.cit);
        EXPECT_EQ(fuClass(e.op), e.fu);
        EXPECT_EQ(execLatency(e.op), e.latency);
        EXPECT_EQ(memAccessSize(e.op), e.memBytes);
    }
}

TEST(Isa, BytesNamingNoOpcodeReadAsPlainAlu)
{
    // Trace records are mapped from disk, so every byte value must be
    // answerable: unnamed ones behave as a one-cycle integer-ALU op.
    for (int v = static_cast<int>(Opcode::NUM_OPCODES); v < 256; ++v) {
        Opcode op = static_cast<Opcode>(v);
        EXPECT_FALSE(isMem(op) || isControl(op) || isSetup(op) ||
                     isFloat(op) || isCitOp(op))
            << v;
        EXPECT_EQ(fuClass(op), FuClass::IntAlu) << v;
        EXPECT_EQ(execLatency(op), 1) << v;
        EXPECT_EQ(memAccessSize(op), 0) << v;
    }
}

TEST(Isa, SourceRegsSkipsZeroAndNone)
{
    Instruction inst;
    inst.op = Opcode::ADD;
    inst.rs1 = 5;
    inst.rs2 = REG_ZERO;
    Reg out[3];
    EXPECT_EQ(sourceRegs(inst, out), 1);
    EXPECT_EQ(out[0], 5);

    Instruction fma;
    fma.op = Opcode::FMADD;
    fma.rs1 = freg(1);
    fma.rs2 = freg(2);
    fma.rs3 = freg(3);
    EXPECT_EQ(sourceRegs(fma, out), 3);
}

TEST(Isa, HasDestExcludesX0)
{
    Instruction inst;
    inst.op = Opcode::ADD;
    inst.rd = REG_ZERO;
    EXPECT_FALSE(inst.hasDest());
    inst.rd = 3;
    EXPECT_TRUE(inst.hasDest());
    inst.rd = freg(0);
    EXPECT_TRUE(inst.hasDest());
    inst.rd = REG_NONE;
    EXPECT_FALSE(inst.hasDest());
}

TEST(SetupEncoding, RoundTrip)
{
    Instruction sb = makeSetBranchId(5);
    EXPECT_EQ(sb.op, Opcode::SET_BRANCH_ID);
    EXPECT_EQ(setBranchIdId(sb), 5);

    Instruction sd = makeSetDependency(37, 6);
    EXPECT_EQ(sd.op, Opcode::SET_DEPENDENCY);
    EXPECT_EQ(setDependencyNum(sd), 37);
    EXPECT_EQ(setDependencyId(sd), 6);
}

TEST(SetupEncoding, ToStringMatchesPaperSyntax)
{
    EXPECT_EQ(makeSetBranchId(1).toString(), "setBranchId 1");
    EXPECT_EQ(makeSetDependency(8, 1).toString(), "setDependency 8 1");
}

TEST(Isa, MemToStringUsesOffsetForm)
{
    Instruction lw;
    lw.op = Opcode::LW;
    lw.rd = 14;
    lw.rs1 = REG_FP;
    lw.imm = -40;
    EXPECT_EQ(lw.toString(), "lw x14, -40(x8)");

    Instruction sw;
    sw.op = Opcode::SW;
    sw.rs2 = 15;
    sw.rs1 = REG_FP;
    sw.imm = -20;
    EXPECT_EQ(sw.toString(), "sw x15, -20(x8)");
}

} // namespace
} // namespace noreba
