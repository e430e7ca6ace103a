/**
 * @file
 * Unit tests for the functional interpreter: instruction semantics,
 * trace-record fields, and the architectural BIT/DCT replay of
 * Table 1.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "isa/setup_encoding.h"
#include "workloads/workloads.h"

namespace noreba {
namespace {

/** Run a single straight-line block and return the interpreter. */
template <typename BuildFn>
Interpreter
runStraight(BuildFn &&build, DynamicTrace *traceOut = nullptr)
{
    static Program prog("t");
    prog = Program("t");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e);
    build(b);
    b.halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();
    if (traceOut)
        *traceOut = std::move(t);
    return interp;
}

TEST(Interp, IntegerAlu)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, 10)
            .li(T1, 3)
            .add(T2, T0, T1)
            .sub(T3, T0, T1)
            .mul(T4, T0, T1)
            .div(T5, T0, T1)
            .rem(T6, T0, T1)
            .slt(S2, T1, T0)
            .xor_(S3, T0, T1)
            .srli(S4, T0, 1)
            .slli(S5, T1, 2);
    });
    EXPECT_EQ(i.intReg(T2), 13);
    EXPECT_EQ(i.intReg(T3), 7);
    EXPECT_EQ(i.intReg(T4), 30);
    EXPECT_EQ(i.intReg(T5), 3);
    EXPECT_EQ(i.intReg(T6), 1);
    EXPECT_EQ(i.intReg(S2), 1);
    EXPECT_EQ(i.intReg(S3), 9);
    EXPECT_EQ(i.intReg(S4), 5);
    EXPECT_EQ(i.intReg(S5), 12);
}

TEST(Interp, DivideByZeroFollowsRiscv)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, 42).li(T1, 0).div(T2, T0, T1).rem(T3, T0, T1);
    });
    EXPECT_EQ(i.intReg(T2), -1); // RISC-V: div by zero -> -1
    EXPECT_EQ(i.intReg(T3), 42); // rem by zero -> dividend
}

TEST(Interp, SignedOverflowWrapsLikeRiscv)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, INT64_MAX)
            .li(T1, 1)
            .li(T2, INT64_MIN)
            .add(S2, T0, T1)  // MAX + 1
            .addi(S3, T0, 1)  // immediate form
            .sub(S4, T2, T1)  // MIN - 1
            .mul(S5, T0, T0)  // MAX * MAX
            .mul(S6, T2, T2)  // MIN * MIN
            .li(S7, -1)
            .slli(S8, S7, 63) // shifting a negative value left
            .li(S9, 3)
            .sll(S10, T0, S9);
    });
    EXPECT_EQ(i.intReg(S2), INT64_MIN);
    EXPECT_EQ(i.intReg(S3), INT64_MIN);
    EXPECT_EQ(i.intReg(S4), INT64_MAX);
    EXPECT_EQ(i.intReg(S5), 1);
    EXPECT_EQ(i.intReg(S6), 0);
    EXPECT_EQ(i.intReg(S8), INT64_MIN);
    EXPECT_EQ(i.intReg(S10), -8);
}

TEST(Interp, MinDividedByMinusOneFollowsRiscv)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, INT64_MIN)
            .li(T1, -1)
            .div(T2, T0, T1)
            .rem(T3, T0, T1)
            .li(T4, 7)
            .div(T5, T4, T1)
            .rem(T6, T4, T1);
    });
    EXPECT_EQ(i.intReg(T2), INT64_MIN); // overflow: quotient = dividend
    EXPECT_EQ(i.intReg(T3), 0);         // and remainder 0
    EXPECT_EQ(i.intReg(T5), -7);
    EXPECT_EQ(i.intReg(T6), 0);
}

TEST(Interp, AddressAddWrapsAround)
{
    // A base register near INT64_MAX plus a positive offset wraps to
    // the bottom of the signed range; the address is the unsigned sum.
    Program prog("wrapaddr");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .li(S2, INT64_MAX)
        .li(T0, 0x5a)
        .sd(T0, S2, 9, 1)
        .ld(T1, S2, 9, 1)
        .halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();
    const uint64_t want = static_cast<uint64_t>(INT64_MAX) + 9;
    int memOps = 0;
    for (const auto &rec : t.records) {
        if (!isMem(rec.op))
            continue;
        ++memOps;
        EXPECT_EQ(rec.addrOrImm, want);
    }
    EXPECT_EQ(memOps, 2);
    EXPECT_EQ(interp.intReg(T1), 0x5a);
}

TEST(Interp, X0IsHardwiredZero)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(ZERO, 99).add(T0, ZERO, ZERO);
    });
    EXPECT_EQ(i.intReg(REG_ZERO), 0);
    EXPECT_EQ(i.intReg(T0), 0);
}

TEST(Interp, LoadStoreRoundTripAndSignExtension)
{
    Program prog("mem");
    uint64_t buf = prog.allocGlobal(64);
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .li(S2, static_cast<int64_t>(buf))
        .li(T0, -2) // 0xfffffffffffffffe
        .sb(T0, S2, 0, 1)
        .lb(T1, S2, 0, 1)   // sign-extended byte: -2
        .sw(T0, S2, 8, 1)
        .lw(T2, S2, 8, 1)   // sign-extended word: -2
        .sd(T0, S2, 16, 1)
        .ld(T3, S2, 16, 1)
        .halt();
    prog.finalize();
    Interpreter interp(prog);
    interp.run();
    EXPECT_EQ(interp.intReg(T1), -2);
    EXPECT_EQ(interp.intReg(T2), -2);
    EXPECT_EQ(interp.intReg(T3), -2);
}

TEST(Interp, FloatingPoint)
{
    auto i = runStraight([](IRBuilder &b) {
        b.li(T0, 9)
            .fcvtDL(F0, T0)
            .fsqrt(F1, F0)     // 3.0
            .li(T1, 2)
            .fcvtDL(F2, T1)
            .fmul(F3, F1, F2)  // 6.0
            .fadd(F4, F3, F1)  // 9.0
            .fdiv(F5, F4, F2)  // 4.5
            .fmadd(F6, F1, F2, F5) // 3*2+4.5 = 10.5
            .fcvtLD(T2, F6)
            .flt(T3, F1, F3);
    });
    EXPECT_DOUBLE_EQ(i.fpReg(1), 3.0);
    EXPECT_DOUBLE_EQ(i.fpReg(5), 4.5);
    EXPECT_EQ(i.intReg(T2), 10);
    EXPECT_EQ(i.intReg(T3), 1);
}

TEST(Interp, BranchOutcomesAndTraceFields)
{
    Program prog("br");
    IRBuilder b(prog);
    int e = b.newBlock("e");
    int taken = b.newBlock("taken");
    int after = b.newBlock("after");
    b.at(e).li(T0, 1).beq(T0, T0, taken, after);
    b.at(taken).li(T1, 7).fallthrough(after);
    b.at(after).halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();

    ASSERT_EQ(t.branches, 1u);
    EXPECT_EQ(t.takenBranches, 1u);
    const TraceRecord *br = nullptr;
    for (const auto &rec : t.records)
        if (rec.isCondBr())
            br = &rec;
    ASSERT_NE(br, nullptr);
    EXPECT_TRUE(br->taken);
    EXPECT_EQ(br->nextPc, prog.layout().blockPc(1));
    EXPECT_EQ(interp.intReg(T1), 7);
}

TEST(Interp, JumpTableSelectsByValue)
{
    Program prog("jt");
    IRBuilder b(prog);
    int e = b.newBlock();
    int h0 = b.newBlock();
    int h1 = b.newBlock();
    int h2 = b.newBlock();
    int out = b.newBlock();
    b.at(e).li(T0, 2).jumpTable(T0, {h0, h1, h2});
    b.at(h0).li(T1, 100).jump(out);
    b.at(h1).li(T1, 200).jump(out);
    b.at(h2).li(T1, 300).jump(out);
    b.at(out).halt();
    prog.finalize();
    Interpreter interp(prog);
    DynamicTrace t = interp.run();
    EXPECT_EQ(interp.intReg(T1), 300);
    // The jump-table record points at the selected handler.
    for (const auto &rec : t.records)
        if (rec.op == Opcode::JALR)
            EXPECT_EQ(rec.nextPc, prog.layout().blockPc(h2));
}

TEST(Interp, MemoryRecordsCarryAddressAndSize)
{
    Program prog("memrec");
    uint64_t buf = prog.allocGlobal(16);
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .li(S2, static_cast<int64_t>(buf))
        .sw(ZERO, S2, 4, 1)
        .halt();
    prog.finalize();
    DynamicTrace t = Interpreter(prog).run();
    const TraceRecord *sw = nullptr;
    for (const auto &rec : t.records)
        if (rec.op == Opcode::SW)
            sw = &rec;
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sw->addrOrImm, buf + 4);
    EXPECT_EQ(sw->memSize, 4);
}

TEST(Interp, TruncationStopsAtLimit)
{
    Program prog("inf");
    IRBuilder b(prog);
    int e = b.newBlock();
    int loop = b.newBlock();
    int exit = b.newBlock();
    b.at(e).li(T0, 0).li(T1, 1 << 20).fallthrough(loop);
    b.at(loop).addi(T0, T0, 1).blt(T0, T1, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    Interpreter interp(prog);
    InterpOptions opts;
    opts.maxDynInsts = 1000;
    DynamicTrace t = interp.run(opts);
    EXPECT_TRUE(t.truncated);
    EXPECT_EQ(t.dynInsts, 1000u);
}

TEST(Interp, BitDctReplayMatchesTable1)
{
    // Hand-annotated block: setBranchId 3 / branch / setDependency 2 3.
    Program prog("bitdct");
    IRBuilder b(prog);
    int e = b.newBlock("e");
    int arm = b.newBlock("arm");
    int join = b.newBlock("join");
    b.at(e)
        .li(T0, 1)
        .emit(makeSetBranchId(3))
        .beq(T0, ZERO, join, arm);
    b.at(arm)
        .emit(makeSetDependency(2, 3))
        .addi(T1, T1, 1)
        .addi(T2, T2, 1)
        .addi(T3, T3, 1) // beyond the region: independent
        .jump(join);
    b.at(join).halt();
    prog.finalize();

    DynamicTrace t = Interpreter(prog).run();
    // Find the branch's trace index.
    TraceIdx branchIdx = TRACE_NONE;
    for (size_t i = 0; i < t.size(); ++i)
        if (t.records[i].isCondBr())
            branchIdx = static_cast<TraceIdx>(i);
    ASSERT_NE(branchIdx, TRACE_NONE);
    EXPECT_TRUE(t.records[static_cast<size_t>(branchIdx)].markedBranch);

    int guarded = 0, independent = 0;
    for (const auto &rec : t.records) {
        if (rec.op != Opcode::ADD)
            continue;
        if (rec.guardIdx == branchIdx)
            ++guarded;
        else if (rec.guardIdx == TRACE_NONE)
            ++independent;
    }
    EXPECT_EQ(guarded, 2);     // exactly NUM instructions covered
    EXPECT_EQ(independent, 1); // the third addi is beyond the region
}

TEST(Interp, UnsetBitGivesInvalidDependency)
{
    // setDependency naming an ID whose setBranchId never ran: the
    // covered instructions are marked INVALID (Table 1).
    Program prog("unsetbit");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .emit(makeSetDependency(1, 5))
        .addi(T1, T1, 1)
        .halt();
    prog.finalize();
    DynamicTrace t = Interpreter(prog).run();
    for (const auto &rec : t.records)
        if (rec.op == Opcode::ADD)
            EXPECT_EQ(rec.guardIdx, TRACE_NONE);
}

TEST(Interp, SetupRecordsDoNotCountAsDynInsts)
{
    Program prog("setupcount");
    IRBuilder b(prog);
    int e = b.newBlock();
    b.at(e)
        .emit(makeSetBranchId(1))
        .nop()
        .halt();
    prog.finalize();
    DynamicTrace t = Interpreter(prog).run();
    EXPECT_EQ(t.setupInsts, 1u);
    EXPECT_EQ(t.dynInsts, 2u); // nop + halt
    EXPECT_EQ(t.size(), 3u);
}

TEST(Interp, ChecksumIsDeterministic)
{
    Program p1("c1");
    {
        IRBuilder b(p1);
        int e = b.newBlock();
        b.at(e).li(T0, 5).mul(T1, T0, T0).halt();
        p1.finalize();
    }
    Interpreter a(p1), c(p1);
    a.run();
    c.run();
    EXPECT_EQ(a.regChecksum(), c.regChecksum());
}

TEST(MemoryImage, SparsePagesReadBackZeroAndWrites)
{
    MemoryImage mem;
    EXPECT_EQ(mem.read(0x123456, 8), 0u);
    mem.write(0xfff, 0xaabb, 2); // crosses a page boundary
    EXPECT_EQ(mem.read(0xfff, 2), 0xaabbu);
    EXPECT_EQ(mem.read8(0xfff), 0xbb);
    EXPECT_EQ(mem.read8(0x1000), 0xaa);
    EXPECT_GE(mem.numPages(), 2u);
}

/** The image a byte-at-a-time copy of `segs`, in order, produces. */
MemoryImage
byteWiseImage(const std::vector<DataSegment> &segs)
{
    MemoryImage ref;
    for (const auto &seg : segs)
        for (size_t i = 0; i < seg.bytes.size(); ++i)
            ref.write8(seg.base + i, seg.bytes[i]);
    return ref;
}

/** Same pages, and every byte of every page a segment touches equal. */
void
expectSameImage(const MemoryImage &got, const MemoryImage &ref,
                const std::vector<DataSegment> &segs)
{
    ASSERT_EQ(got.numPages(), ref.numPages());
    constexpr uint64_t P = MemoryImage::PAGE_BYTES;
    for (const auto &seg : segs) {
        if (seg.bytes.empty())
            continue;
        uint64_t first = seg.base / P;
        uint64_t last = (seg.base + seg.bytes.size() - 1) / P;
        for (uint64_t pg = first; pg <= last; ++pg)
            for (uint64_t a = pg * P; a < (pg + 1) * P; ++a)
                ASSERT_EQ(got.read8(a), ref.read8(a))
                    << "address 0x" << std::hex << a;
    }
    EXPECT_EQ(got.numPages(), ref.numPages()); // reads added none
}

std::vector<uint8_t>
patternBytes(size_t n, uint8_t seed)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<uint8_t>(seed + 7 * i);
    return v;
}

TEST(MemoryImage, BulkCopyStraddlingAPageBoundary)
{
    std::vector<DataSegment> segs{{0xff0, patternBytes(40, 3)}};
    MemoryImage mem;
    mem.writeBytes(segs[0].base, segs[0].bytes.data(),
                   segs[0].bytes.size());
    EXPECT_EQ(mem.numPages(), 2u);
    expectSameImage(mem, byteWiseImage(segs), segs);
}

TEST(MemoryImage, BulkCopySpanningSeveralPages)
{
    std::vector<DataSegment> segs{
        {0x2100, patternBytes(3 * MemoryImage::PAGE_BYTES + 77, 9)}};
    MemoryImage mem;
    mem.writeBytes(segs[0].base, segs[0].bytes.data(),
                   segs[0].bytes.size());
    EXPECT_EQ(mem.numPages(), 4u);
    expectSameImage(mem, byteWiseImage(segs), segs);
}

TEST(MemoryImage, ZeroLengthBulkCopyTouchesNoPage)
{
    uint8_t byte = 0x5a;
    MemoryImage mem;
    mem.writeBytes(0x5000, &byte, 0);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(MemoryImage, OverlappingSegmentsLastOneWins)
{
    Program prog("overlap");
    uint64_t a = prog.allocGlobal(16);
    uint64_t b = prog.allocGlobal(16);
    ASSERT_EQ(b, a + 16);
    // Contained by neither segment: pokeBytes adds a third one that
    // overlaps both.
    std::vector<uint8_t> ee(16, 0xee);
    prog.pokeBytes(a + 8, ee.data(), ee.size());
    ASSERT_EQ(prog.dataSegments().size(), 3u);
    // Only the third segment contains this range...
    uint16_t mid = 0x1234;
    prog.pokeBytes(a + 15, &mid, sizeof(mid));
    // ...but the first contains this one, and so takes it, although
    // the segment that took the previous poke contains it too.
    uint8_t one = 0x11;
    prog.pokeBytes(a + 9, &one, 1);
    const auto &segs = prog.dataSegments();
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0].bytes[9], 0x11);
    EXPECT_EQ(segs[2].bytes[1], 0xee);
    EXPECT_EQ(segs[2].bytes[7], 0x34);

    Interpreter interp(prog); // the constructor only lays out memory
    const MemoryImage &mem = interp.memory();
    EXPECT_EQ(mem.read8(a + 9), 0xee); // the third segment wins
    EXPECT_EQ(mem.read(a + 15, 2), 0x1234u);
    EXPECT_EQ(mem.read8(a + 7), 0x00);
    expectSameImage(mem, byteWiseImage(segs), segs);
}

TEST(MemoryImage, RegistryImagesMatchByteWiseCopy)
{
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        Program prog = buildWorkload(name);
        Interpreter interp(prog);
        expectSameImage(interp.memory(),
                        byteWiseImage(prog.dataSegments()),
                        prog.dataSegments());
    }
}

} // namespace
} // namespace noreba
