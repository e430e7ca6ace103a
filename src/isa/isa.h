/**
 * @file
 * Instruction record and ISA property queries. A single Instruction
 * struct serves as the machine-level IR instruction (inside basic
 * blocks) — the NOREBA pass operates at machine level, like the paper's
 * LLVM RISC-V backend pass.
 */

#ifndef NOREBA_ISA_ISA_H
#define NOREBA_ISA_ISA_H

#include <cstdint>
#include <string>

#include "isa/opcodes.h"

namespace noreba {

/**
 * Architectural register identifiers. 0..31 are integer registers
 * (x0 is hardwired zero), 32..63 are floating-point registers.
 */
using Reg = int16_t;

constexpr Reg REG_NONE = -1;
constexpr Reg REG_ZERO = 0;             //!< x0, always zero
constexpr Reg REG_SP = 2;               //!< stack pointer (x2)
constexpr Reg REG_FP = 8;               //!< frame pointer (x8)
constexpr int NUM_INT_REGS = 32;
constexpr int NUM_FP_REGS = 32;
constexpr int NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS;

/** First FP register id. */
constexpr Reg FREG_BASE = NUM_INT_REGS;

/** fN as a Reg id. */
constexpr Reg freg(int n) { return static_cast<Reg>(FREG_BASE + n); }

/** Alias-region tag for memory operations (see AliasAnalysis). */
using AliasRegion = int32_t;
constexpr AliasRegion ALIAS_UNKNOWN = -1; //!< may alias any location

/**
 * One machine instruction. Branch targets are expressed as basic-block
 * ids at the IR level and resolved to PCs when the program is laid out.
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    Reg rd = REG_NONE;    //!< destination register (REG_NONE if none)
    Reg rs1 = REG_NONE;   //!< first source
    Reg rs2 = REG_NONE;   //!< second source (store data for stores)
    Reg rs3 = REG_NONE;   //!< third source (FMADD)
    int64_t imm = 0;      //!< immediate / offset / setup-instruction field

    /**
     * Branch/jump target as an IR basic-block id; -1 when not a control
     * transfer or for JALR (indirect).
     */
    int32_t target = -1;

    /**
     * Alias region of a memory access, set by the workload builder
     * (ALIAS_UNKNOWN = may alias everything). sp/fp-relative accesses
     * are additionally disambiguated by exact offset.
     */
    AliasRegion aliasRegion = ALIAS_UNKNOWN;

    bool hasDest() const { return rd > 0 || (rd >= FREG_BASE); }

    std::string toString() const;
};

/**
 * @name Opcode classes
 *
 * Every class query, the functional-unit class, the execution latency
 * and the memory access size come from one constexpr row per opcode
 * (OPCODE_TABLE), so the per-instruction queries of the core and the
 * interpreter are a single indexed load. The table is indexed by the
 * raw opcode byte and covers all 256 values: a byte that names no
 * opcode reads as a plain one-cycle integer-ALU operation, which is
 * what the class queries have always answered for it.
 * @{
 */

/** Class bits of an OpcodeInfo row. */
enum OpcodeClassBits : uint8_t
{
    OPC_LOAD = 1 << 0,
    OPC_STORE = 1 << 1,
    OPC_COND_BRANCH = 1 << 2,
    OPC_JUMP = 1 << 3,
    OPC_FLOAT = 1 << 4,
    OPC_SETUP = 1 << 5,   //!< setBranchId / setDependency
    OPC_CIT = 1 << 6,     //!< getCITEntry / setCITEntry
};

/** One opcode's static properties. */
struct OpcodeInfo
{
    uint8_t cls = 0;               //!< OpcodeClassBits
    FuClass fu = FuClass::IntAlu;
    uint8_t latency = 1;           //!< cycles on its functional unit
    uint8_t memBytes = 0;          //!< access size (memory ops only)
};

namespace isa_detail {

/** Execution latency of each functional-unit class. Loads and stores
 *  count address generation only; the cache hierarchy adds the rest. */
constexpr uint8_t
fuLatency(FuClass fu)
{
    switch (fu) {
      case FuClass::IntMul: return 3;
      case FuClass::IntDiv: return 12;
      case FuClass::FpAlu: return 3;
      case FuClass::FpMul: return 4;
      case FuClass::FpDiv: return 12;
      case FuClass::None: return 0;
      default: return 1;
    }
}

struct OpcodeTable
{
    OpcodeInfo rows[256];

    constexpr void
    set(Opcode op, FuClass fu, uint8_t cls = 0, uint8_t memBytes = 0)
    {
        rows[static_cast<uint8_t>(op)] =
            OpcodeInfo{cls, fu, fuLatency(fu), memBytes};
    }
};

constexpr OpcodeTable
buildOpcodeTable()
{
    using O = Opcode;
    using F = FuClass;
    OpcodeTable t{};
    for (O op : {O::ADD, O::SUB, O::AND, O::OR, O::XOR, O::SLL, O::SRL,
                 O::SRA, O::SLT, O::SLTU, O::LUI, O::AUIPC, O::FENCE})
        t.set(op, F::IntAlu);
    t.set(O::MUL, F::IntMul);
    t.set(O::MULH, F::IntMul);
    t.set(O::DIV, F::IntDiv);
    t.set(O::REM, F::IntDiv);

    t.set(O::LB, F::MemRead, OPC_LOAD, 1);
    t.set(O::LH, F::MemRead, OPC_LOAD, 2);
    t.set(O::LW, F::MemRead, OPC_LOAD, 4);
    t.set(O::LD, F::MemRead, OPC_LOAD, 8);
    t.set(O::FLW, F::MemRead, OPC_LOAD | OPC_FLOAT, 4);
    t.set(O::FLD, F::MemRead, OPC_LOAD | OPC_FLOAT, 8);
    t.set(O::SB, F::MemWrite, OPC_STORE, 1);
    t.set(O::SH, F::MemWrite, OPC_STORE, 2);
    t.set(O::SW, F::MemWrite, OPC_STORE, 4);
    t.set(O::SD, F::MemWrite, OPC_STORE, 8);
    t.set(O::FSW, F::MemWrite, OPC_STORE | OPC_FLOAT, 4);
    t.set(O::FSD, F::MemWrite, OPC_STORE | OPC_FLOAT, 8);

    for (O op : {O::BEQ, O::BNE, O::BLT, O::BGE, O::BLTU, O::BGEU})
        t.set(op, F::Branch, OPC_COND_BRANCH);
    t.set(O::JAL, F::Branch, OPC_JUMP);
    t.set(O::JALR, F::Branch, OPC_JUMP);

    for (O op : {O::FADD, O::FSUB, O::FMIN, O::FMAX, O::FCVT_D_L,
                 O::FCVT_L_D, O::FEQ, O::FLT, O::FLE, O::FMV})
        t.set(op, F::FpAlu, OPC_FLOAT);
    t.set(O::FMUL, F::FpMul, OPC_FLOAT);
    t.set(O::FMADD, F::FpMul, OPC_FLOAT);
    t.set(O::FDIV, F::FpDiv, OPC_FLOAT);
    t.set(O::FSQRT, F::FpDiv, OPC_FLOAT);

    t.set(O::SET_BRANCH_ID, F::None, OPC_SETUP);
    t.set(O::SET_DEPENDENCY, F::None, OPC_SETUP);
    t.set(O::GET_CIT_ENTRY, F::IntAlu, OPC_CIT);
    t.set(O::SET_CIT_ENTRY, F::IntAlu, OPC_CIT);
    t.set(O::NOP, F::None);
    t.set(O::HALT, F::None);
    return t;
}

inline constexpr OpcodeTable OPCODE_TABLE = buildOpcodeTable();

} // namespace isa_detail

/** The static properties of `op`. */
constexpr const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return isa_detail::OPCODE_TABLE.rows[static_cast<uint8_t>(op)];
}

constexpr bool isLoad(Opcode op) { return opcodeInfo(op).cls & OPC_LOAD; }
constexpr bool isStore(Opcode op) { return opcodeInfo(op).cls & OPC_STORE; }
constexpr bool
isMem(Opcode op)
{
    return opcodeInfo(op).cls & (OPC_LOAD | OPC_STORE);
}
constexpr bool
isCondBranch(Opcode op)
{
    return opcodeInfo(op).cls & OPC_COND_BRANCH;
}
constexpr bool isJump(Opcode op) { return opcodeInfo(op).cls & OPC_JUMP; }
constexpr bool
isControl(Opcode op)
{
    return opcodeInfo(op).cls & (OPC_COND_BRANCH | OPC_JUMP);
}
constexpr bool isFloat(Opcode op) { return opcodeInfo(op).cls & OPC_FLOAT; }
constexpr bool isSetup(Opcode op) { return opcodeInfo(op).cls & OPC_SETUP; }
constexpr bool isCitOp(Opcode op) { return opcodeInfo(op).cls & OPC_CIT; }

/**
 * True if the opcode can architecturally raise an exception: memory
 * operations (page faults / protection). On RISC-V, FP exceptions accrue
 * into fcsr and do not trap (Section 4.4), so FP ops are excluded.
 */
constexpr bool mayRaiseException(Opcode op) { return isMem(op); }

/** Functional-unit class for the opcode. */
constexpr FuClass fuClass(Opcode op) { return opcodeInfo(op).fu; }

/** Execution latency in cycles on its functional unit. */
constexpr int execLatency(Opcode op) { return opcodeInfo(op).latency; }

/** Access size in bytes for a memory opcode (0 otherwise). */
constexpr int memAccessSize(Opcode op) { return opcodeInfo(op).memBytes; }
/** @} */

/**
 * Collect the source registers of an instruction into `out` (capacity 3),
 * skipping REG_NONE and x0. Returns the number written.
 */
inline int
sourceRegs(const Instruction &inst, Reg out[3])
{
    int n = 0;
    for (Reg r : {inst.rs1, inst.rs2, inst.rs3})
        if (r != REG_NONE && r != REG_ZERO)
            out[n++] = r;
    return n;
}

} // namespace noreba

#endif // NOREBA_ISA_ISA_H
