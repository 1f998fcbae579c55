/**
 * @file
 * Unit tests for ProgramBuilder and the Program code layout.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workloads/builder.hh"
#include "workloads/emulator.hh"
#include "workloads/program.hh"

namespace drsim {
namespace {

TEST(Builder, StraightLineLayout)
{
    ProgramBuilder b("straight");
    b.li(intReg(1), 5);
    b.addi(intReg(2), intReg(1), 1);
    b.halt();
    const Program p = b.build();

    EXPECT_EQ(p.name(), "straight");
    EXPECT_EQ(p.numInsts(), 3u);
    const CodeLoc entry = p.entry();
    ASSERT_TRUE(entry.valid());
    EXPECT_EQ(p.pcOf(entry), kCodeBase);
    EXPECT_EQ(p.instAt(entry).op, Opcode::Add);

    const CodeLoc second = p.nextLoc(entry);
    EXPECT_EQ(p.pcOf(second), kCodeBase + 4);
    const CodeLoc third = p.nextLoc(second);
    EXPECT_TRUE(p.instAt(third).isHalt());
    EXPECT_FALSE(p.nextLoc(third).valid());
}

TEST(Builder, LocOfRoundTrips)
{
    ProgramBuilder b("roundtrip");
    for (int i = 0; i < 10; ++i)
        b.addi(intReg(1), intReg(1), i);
    b.halt();
    const Program p = b.build();

    CodeLoc loc = p.entry();
    while (loc.valid()) {
        EXPECT_EQ(p.locOf(p.pcOf(loc)), loc);
        loc = p.nextLoc(loc);
    }
}

TEST(Builder, LocOfRejectsNonCode)
{
    ProgramBuilder b("bad-pc");
    b.halt();
    const Program p = b.build();
    EXPECT_FALSE(p.locOf(0).valid());
    EXPECT_FALSE(p.locOf(kCodeBase + 2).valid()); // misaligned
    EXPECT_FALSE(p.locOf(kCodeBase + 400).valid()); // past the end
    EXPECT_FALSE(p.locOf(kDataBase).valid());
}

TEST(Builder, BackwardBranchTarget)
{
    ProgramBuilder b("loop");
    b.li(intReg(1), 3);
    const auto top = b.here();
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    const Program p = b.build();

    // Find the bne and check its target block starts at the subi.
    CodeLoc loc = p.entry();
    while (p.instAt(loc).op != Opcode::Bne)
        loc = p.nextLoc(loc);
    const Instruction &bne = p.instAt(loc);
    const CodeLoc target = p.blockEntryResolved(bne.target);
    ASSERT_TRUE(target.valid());
    EXPECT_EQ(p.instAt(target).op, Opcode::Sub);
}

TEST(Builder, ForwardBranchTarget)
{
    ProgramBuilder b("fwd");
    const auto skip = b.newLabel();
    b.beq(intReg(1), skip);
    b.li(intReg(2), 1);
    b.bind(skip);
    b.li(intReg(3), 2);
    b.halt();
    const Program p = b.build();

    const Instruction &beq = p.instAt(p.entry());
    ASSERT_EQ(beq.op, Opcode::Beq);
    const CodeLoc target = p.blockEntryResolved(beq.target);
    const Instruction &at_target = p.instAt(target);
    EXPECT_EQ(at_target.op, Opcode::Add);
    EXPECT_EQ(at_target.dest, intReg(3));
}

TEST(Builder, ConsecutiveLabelsShareBlock)
{
    ProgramBuilder b("labels");
    const auto l1 = b.newLabel();
    const auto l2 = b.newLabel();
    b.br(l2);
    b.bind(l1);
    b.bind(l2);
    b.li(intReg(1), 7);
    b.halt();
    const Program p = b.build();

    const Instruction &br = p.instAt(p.entry());
    const CodeLoc target = p.blockEntryResolved(br.target);
    ASSERT_TRUE(target.valid());
    EXPECT_EQ(p.instAt(target).dest, intReg(1));
}

TEST(Builder, DataAllocationIsAlignedAndDisjoint)
{
    ProgramBuilder b("data");
    const Addr a = b.allocWords(3);
    const Addr c = b.allocWords(10);
    EXPECT_GE(c, a + 3 * 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(c % 8, 0u);
    EXPECT_GE(a, kDataBase);
    b.initWord(a, 123);
    b.initDouble(c, 2.5);
    b.halt();
    const Program p = b.build();
    EXPECT_EQ(p.initialWord(a).value(), 123u);
    EXPECT_EQ(p.initialWord(c).value(),
              std::bit_cast<std::uint64_t>(2.5));
}

TEST(Builder, RepeatedInitWordKeepsTheLastWrite)
{
    ProgramBuilder b("rewrite");
    const Addr a = b.allocWords(4);
    b.initWord(a + 16, 1);
    b.initWord(a, 2);
    b.initWord(a + 16, 3); // out of address order, then rewritten
    b.initWord(a + 19, 4); // an unaligned address names the same word
    b.halt();
    const Program p = b.build();
    // One entry per word, ascending, each holding its last write.
    ASSERT_EQ(p.initialWords().size(), 2u);
    EXPECT_EQ(p.initialWords()[0].addr, a);
    EXPECT_EQ(p.initialWords()[0].value, 2u);
    EXPECT_EQ(p.initialWords()[1].addr, a + 16);
    EXPECT_EQ(p.initialWords()[1].value, 4u);
    EXPECT_EQ(p.initialWord(a + 16).value(), 4u);
    EXPECT_FALSE(p.initialWord(a + 8).has_value());
    // The emulator starts from the same image.
    Emulator emu(p);
    EXPECT_EQ(emu.memWord(a + 16), 4u);
    EXPECT_EQ(emu.memWord(a), 2u);
}

TEST(Builder, OperandClassValidation)
{
    ProgramBuilder b("bad");
    EXPECT_DEATH(b.ldt(intReg(1), intReg(2), 0), "ldt");
}

TEST(Builder, FallthroughAcrossBlocks)
{
    // A branch ends a block; the next instruction starts a new one and
    // nextLoc must fall through to it.
    ProgramBuilder b("fall");
    const auto skip = b.newLabel();
    b.beq(intReg(1), skip);
    b.li(intReg(2), 1);
    b.bind(skip);
    b.halt();
    const Program p = b.build();

    const CodeLoc after_branch = p.nextLoc(p.entry());
    ASSERT_TRUE(after_branch.valid());
    EXPECT_EQ(p.instAt(after_branch).dest, intReg(2));
    EXPECT_NE(after_branch.block, p.entry().block);
}

TEST(Builder, JsrAndRetShape)
{
    ProgramBuilder b("call");
    const auto fn = b.newLabel();
    b.jsr(intReg(26), fn);
    b.halt();
    b.bind(fn);
    b.ret(intReg(26));
    const Program p = b.build();

    const Instruction &jsr = p.instAt(p.entry());
    EXPECT_EQ(jsr.op, Opcode::Jsr);
    EXPECT_EQ(jsr.dest, intReg(26));
    const CodeLoc fn_loc = p.blockEntryResolved(jsr.target);
    EXPECT_EQ(p.instAt(fn_loc).op, Opcode::Ret);
}

TEST(Builder, BranchToUnboundLabelThrows)
{
    ProgramBuilder b("unbound");
    const auto l = b.newLabel();
    b.br(l);
    b.halt();
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, BranchToUnknownLabelThrows)
{
    ProgramBuilder b("unknown-label");
    b.br(99);
    b.halt();
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, BuildTwiceThrows)
{
    ProgramBuilder b("twice");
    b.halt();
    (void)b.build();
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, EmitAfterBuildThrows)
{
    ProgramBuilder b("post-emit");
    b.halt();
    (void)b.build();
    EXPECT_THROW(b.halt(), FatalError);
}

TEST(Builder, BindErrorsThrow)
{
    ProgramBuilder b("bad-bind");
    EXPECT_THROW(b.bind(5), FatalError);
    const auto l = b.newLabel();
    b.bind(l);
    EXPECT_THROW(b.bind(l), FatalError);
}

TEST(Builder, FinalizeTwiceThrows)
{
    ProgramBuilder b("refinalize");
    b.halt();
    Program p = b.build(); // build() already finalized the program
    EXPECT_THROW(p.finalize(), FatalError);
}

TEST(Builder, DefaultProgramFinalizesOnceOnly)
{
    Program p;
    EXPECT_NO_THROW(p.finalize()); // empty program lays out fine
    EXPECT_THROW(p.finalize(), FatalError);
}

TEST(Builder, BuildRecordsDataSegmentExtent)
{
    ProgramBuilder b("extent");
    const Addr base = b.allocWords(4);
    b.initWord(base + 64, 7); // init beyond the brk widens the limit
    b.halt();
    const Program p = b.build();
    EXPECT_EQ(p.dataBase(), kDataBase);
    EXPECT_GE(p.dataLimit(), base + 64 + 8);
}

} // namespace
} // namespace drsim
