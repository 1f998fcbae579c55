/**
 * @file
 * Assorted coverage: emulator misuse guards, disassembly of control
 * flow, stats-collection toggles, and suite aggregation corners.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"
#include "workloads/emulator.hh"

namespace drsim {
namespace {

TEST(EmulatorGuards, SteppingPastHaltPanics)
{
    ProgramBuilder b("p");
    b.halt();
    Emulator emu(b.build());
    emu.stepArch();
    ASSERT_TRUE(emu.fetchBlocked());
    EXPECT_DEATH(emu.stepArch(), "blocked");
    EXPECT_DEATH((void)emu.pc(), "blocked");
}

TEST(EmulatorGuards, ReleaseOfUnknownCheckpointPanics)
{
    ProgramBuilder b("p");
    b.halt();
    Emulator emu(b.build());
    EXPECT_DEATH(emu.releaseCheckpoint(42), "unknown checkpoint");
}

TEST(Disassemble, ControlFlowFormats)
{
    Instruction jsr;
    jsr.op = Opcode::Jsr;
    jsr.dest = intReg(26);
    jsr.target = 7;
    EXPECT_EQ(disassemble(jsr), "jsr r26, B7");

    Instruction ret;
    ret.op = Opcode::Ret;
    ret.src1 = intReg(26);
    EXPECT_EQ(disassemble(ret), "ret r26");

    Instruction br;
    br.op = Opcode::Br;
    br.target = 2;
    EXPECT_EQ(disassemble(br), "br B2");

    Instruction fbne;
    fbne.op = Opcode::Fbne;
    fbne.src1 = fpReg(4);
    fbne.target = 1;
    EXPECT_EQ(disassemble(fbne), "fbne f4, B1");

    Instruction fsqrt;
    fsqrt.op = Opcode::Fsqrt;
    fsqrt.dest = fpReg(1);
    fsqrt.src1 = fpReg(2);
    EXPECT_EQ(disassemble(fsqrt), "fsqrt f1, f2");
}

TEST(SuiteAggregation, FpDensityWithoutFpBenchmarksIsFatal)
{
    ProgramBuilder b("int-only");
    b.li(intReg(1), 10);
    const auto top = b.here();
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 64;
    SimResult r = simulateProgram(cfg, b.build());
    r.fpIntensive = false;
    SuiteResult suite({r});
    // Integer curves work; FP curves have no contributors.
    EXPECT_NO_THROW(
        suite.avgDensity(RegClass::Int, LiveLevel::PreciseLive));
    EXPECT_THROW(
        suite.avgDensity(RegClass::Fp, LiveLevel::PreciseLive),
        FatalError);
}

TEST(SuiteAggregation, NoFreeRegPctAveraged)
{
    ProgramBuilder b("p");
    b.li(intReg(1), 200);
    const auto top = b.here();
    b.addi(intReg(2), intReg(1), 1);
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 33; // heavy pressure
    const SimResult r = simulateProgram(cfg, b.build());
    EXPECT_GT(r.noFreeRegPct(), 10.0);
    EXPECT_LE(r.noFreeRegPct(), 100.0);
}

TEST(CacheStats, EmptyRatesAreZero)
{
    DCacheStats s;
    EXPECT_DOUBLE_EQ(s.loadMissRate(), 0.0);
}

TEST(ProgramIntrospection, NumInstsMatchesBlocks)
{
    ProgramBuilder b("count");
    b.li(intReg(1), 1);
    const auto skip = b.newLabel();
    b.beq(intReg(1), skip);
    b.li(intReg(2), 2);
    b.bind(skip);
    b.halt();
    const Program p = b.build();
    std::size_t total = 0;
    for (const auto &bb : p.blocks())
        total += bb.insts.size();
    EXPECT_EQ(total, p.numInsts());
    EXPECT_EQ(total, 4u);
}

} // namespace
} // namespace drsim
