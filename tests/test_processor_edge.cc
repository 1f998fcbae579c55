/**
 * @file
 * Edge-case behavioral tests for the core: issue-class limits per
 * functional-unit class, insert/commit bandwidth, I-cache stalls,
 * memory-ordering corners, squash cancellation of cache fills, and
 * configuration validation.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/processor.hh"
#include "workloads/builder.hh"

namespace drsim {
namespace {

CoreConfig
baseConfig()
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 256;
    cfg.perfectICache = true;
    cfg.auditInterval = 64;
    cfg.deadlockCycles = 50000;
    return cfg;
}

/** Per-class issue limits (paper Section 2.1). */
struct ClassLimitCase
{
    const char *name;
    Opcode op;
    int limit4; ///< per-cycle limit at 4-way issue
};

// Print the case by name: gtest's default raw-byte dump would show
// the name pointer's address and make the test name differ from build
// to build.
void
PrintTo(const ClassLimitCase &c, std::ostream *os)
{
    *os << c.name;
}

class IssueClassLimit
    : public ::testing::TestWithParam<ClassLimitCase>
{};

TEST_P(IssueClassLimit, BoundsThroughput)
{
    const ClassLimitCase &c = GetParam();
    const int n = 96;
    ProgramBuilder b(c.name);
    const Addr buf = b.allocWords(4096);
    b.li(intReg(28), std::int64_t(buf));
    for (int i = 0; i < n; ++i) {
        switch (opClassOf(c.op)) {
          case OpClass::MemLoad:
            b.ldq(intReg(1 + (i % 24)), intReg(28),
                  (i % 128) * 8);
            break;
          case OpClass::MemStore:
            b.stq(intReg(27), intReg(28), (i % 128) * 8);
            break;
          case OpClass::FpAdd:
            b.fadd(fpReg(1 + (i % 24)), fpReg(26), fpReg(27));
            break;
          default:
            b.addi(intReg(1 + (i % 24)), intReg(27), i);
            break;
        }
    }
    b.halt();
    CoreConfig cfg = baseConfig();
    cfg.cacheKind = CacheKind::Perfect;
    Processor proc(cfg, b.build());
    proc.run();
    // n independent ops of one class cannot beat the class limit.
    EXPECT_GE(proc.stats().cycles, Cycle(n / c.limit4));
    // ...and with a full queue they get close to it.
    EXPECT_LE(proc.stats().cycles, Cycle(n / c.limit4 + 24));
}

INSTANTIATE_TEST_SUITE_P(
    Classes, IssueClassLimit,
    ::testing::Values(ClassLimitCase{"int", Opcode::Add, 4},
                      ClassLimitCase{"fp", Opcode::Fadd, 2},
                      ClassLimitCase{"load", Opcode::Ldq, 2},
                      ClassLimitCase{"store", Opcode::Stq, 2}),
    [](const ::testing::TestParamInfo<ClassLimitCase> &pinfo) {
        return std::string(pinfo.param.name);
    });

TEST(ProcessorEdge, ControlFlowLimitOnePerCycleAt4Way)
{
    // A chain of unconditional branches: at most 1 control op issues
    // per cycle on the 4-way machine.
    const int n = 40;
    ProgramBuilder b("brchain");
    std::vector<ProgramBuilder::Label> labels;
    for (int i = 0; i < n; ++i)
        labels.push_back(b.newLabel());
    b.br(labels[0]);
    for (int i = 0; i < n; ++i) {
        b.bind(labels[i]);
        if (i + 1 < n)
            b.br(labels[i + 1]);
    }
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_GE(proc.stats().cycles, Cycle(n - 1));
}

TEST(ProcessorEdge, InsertBandwidthIsOneAndAHalfTimesWidth)
{
    // With issue gated off (every op depends on a long chain), insert
    // still proceeds at 1.5x width until the queue fills.
    ProgramBuilder b("insert");
    b.li(intReg(1), 1);
    for (int i = 0; i < 12; ++i)
        b.muli(intReg(1), intReg(1), 1); // 72-cycle head chain
    for (int i = 0; i < 60; ++i)
        b.add(intReg(2 + (i % 20)), intReg(1), intReg(1));
    b.halt();
    CoreConfig cfg = baseConfig();
    cfg.dqSize = 256;
    Processor proc(cfg, b.build());
    // After k ticks the window holds at most 6k instructions.
    proc.tick();
    EXPECT_LE(proc.windowSize(), 6u);
    proc.tick();
    EXPECT_LE(proc.windowSize(), 12u);
    proc.tick();
    EXPECT_GE(proc.windowSize(), 13u); // and it does keep inserting
    proc.run();
    EXPECT_EQ(proc.stats().committed, 74u);
}

TEST(ProcessorEdge, CommitBurstsUpToTwiceWidth)
{
    // A long multiply feeding many dependents completes late; when it
    // does, the backlog commits at up to 2W = 8 per cycle.
    ProgramBuilder b("burst");
    b.li(intReg(1), 3);
    b.muli(intReg(1), intReg(1), 5);
    for (int i = 0; i < 24; ++i)
        b.add(intReg(2 + (i % 20)), intReg(1), intReg(1));
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    std::uint64_t prev = 0;
    std::uint64_t max_burst = 0;
    while (!proc.done()) {
        proc.tick();
        max_burst =
            std::max(max_burst, proc.stats().committed - prev);
        prev = proc.stats().committed;
    }
    EXPECT_LE(max_burst, 8u);
    EXPECT_GE(max_burst, 5u); // the backlog did drain in bursts
}

TEST(ProcessorEdge, IcacheMissesStallStraightLineFetch)
{
    ProgramBuilder b("icache");
    for (int i = 0; i < 64; ++i)
        b.addi(intReg(1 + (i % 24)), intReg(28), i);
    b.halt();
    const Program prog = b.build();

    CoreConfig with = baseConfig();
    with.perfectICache = false;
    CoreConfig without = baseConfig();

    Processor pw(with, prog);
    pw.run();
    Processor po(without, prog);
    po.run();
    // 65 instructions span ~9 lines: ~8 cold misses x 16 cycles.
    EXPECT_GT(pw.stats().cycles, po.stats().cycles + 100);
    EXPECT_GE(pw.icache().misses(), 8u);
}

TEST(ProcessorEdge, LoopRunsFromIcacheAfterWarmup)
{
    ProgramBuilder b("iloop");
    b.li(intReg(1), 400);
    const auto top = b.here();
    b.addi(intReg(2), intReg(2), 1);
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    CoreConfig cfg = baseConfig();
    cfg.perfectICache = false;
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_LE(proc.icache().misses(), 3u);
}

TEST(ProcessorEdge, SquashCancelsWrongPathFills)
{
    // A mispredicted branch guards a load from a huge table; the
    // wrong-path miss must be cancelled when the branch resolves.
    ProgramBuilder b("cancel");
    Rng rng(5);
    const Addr tab = b.allocWords(32768); // 256 KB
    const Addr small = b.allocWords(64);
    for (int i = 0; i < 64; ++i)
        b.initWord(small + Addr(i) * 8, rng.next());
    b.li(intReg(1), std::int64_t(tab));
    b.li(intReg(2), std::int64_t(small));
    b.li(intReg(3), 600);
    const auto top = b.here();
    const auto wild = b.newLabel();
    const auto join = b.newLabel();
    // Pseudo-random, poorly-predicted branch.
    b.andi(intReg(4), intReg(3), 63);
    b.slli(intReg(4), intReg(4), 3);
    b.add(intReg(4), intReg(4), intReg(2));
    b.ldq(intReg(5), intReg(4), 0);
    b.andi(intReg(5), intReg(5), 1);
    b.bne(intReg(5), wild);
    b.addi(intReg(6), intReg(6), 1);
    b.br(join);
    b.bind(wild);
    // This path's load misses in the big table.
    b.andi(intReg(7), intReg(3), 32767);
    b.slli(intReg(7), intReg(7), 3);
    b.add(intReg(7), intReg(7), intReg(1));
    b.ldq(intReg(8), intReg(7), 0);
    b.add(intReg(6), intReg(6), intReg(8));
    b.bind(join);
    b.subi(intReg(3), intReg(3), 1);
    b.bne(intReg(3), top);
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_GT(proc.stats().recoveries, 50u);
    EXPECT_GT(proc.dcache().stats().fetchesCancelled, 0u);
}

TEST(ProcessorEdge, StoreToLoadForwardingPicksYoungestOlderStore)
{
    ProgramBuilder b("youngest");
    const Addr buf = b.allocWords(1);
    b.li(intReg(1), std::int64_t(buf));
    b.li(intReg(2), 10);
    b.li(intReg(3), 20);
    b.stq(intReg(2), intReg(1), 0);
    b.stq(intReg(3), intReg(1), 0);
    b.ldq(intReg(4), intReg(1), 0); // must see 20
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_EQ(proc.emulator().intRegBits(4), 20u);
    EXPECT_EQ(proc.stats().forwardedLoads, 1u);
}

TEST(ProcessorEdge, LoadBeforeYoungerStoreUnaffected)
{
    // A load followed (in program order) by a store to the same
    // address must not forward from it.
    ProgramBuilder b("younger");
    const Addr buf = b.allocWords(1);
    b.initWord(buf, 5);
    b.li(intReg(1), std::int64_t(buf));
    b.li(intReg(2), 99);
    b.ldq(intReg(3), intReg(1), 0); // reads 5
    b.stq(intReg(2), intReg(1), 0);
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_EQ(proc.emulator().intRegBits(3), 5u);
    EXPECT_EQ(proc.stats().forwardedLoads, 0u);
}

TEST(ProcessorEdge, DivsAndDivdLatenciesDiffer)
{
    const int k = 10;
    Cycle cycles[2];
    int idx = 0;
    for (const Opcode op : {Opcode::Fdivs, Opcode::Fdivd}) {
        ProgramBuilder b("div");
        for (int i = 0; i < k; ++i) {
            // chain through fpReg(1)
            if (op == Opcode::Fdivs)
                b.fdivs(fpReg(1), fpReg(1), fpReg(2));
            else
                b.fdivd(fpReg(1), fpReg(1), fpReg(2));
        }
        b.halt();
        CoreConfig cfg = baseConfig();
        Processor proc(cfg, b.build());
        proc.run();
        cycles[idx++] = proc.stats().cycles;
    }
    // 8-cycle single vs 16-cycle double precision divides.
    EXPECT_GE(cycles[0], Cycle(8 * k));
    EXPECT_GE(cycles[1], Cycle(16 * k));
    EXPECT_GT(cycles[1], cycles[0] + 7 * k);
}

TEST(ProcessorEdge, ZeroDestinationAllocatesNothing)
{
    ProgramBuilder b("zerodest");
    for (int i = 0; i < 50; ++i)
        b.addi(intReg(kZeroReg), intReg(1), i);
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    const std::size_t free0 = proc.rename().freeCount(RegClass::Int);
    proc.run();
    EXPECT_EQ(proc.rename().freeCount(RegClass::Int), free0);
    EXPECT_EQ(proc.stats().committed, 51u);
}

TEST(ProcessorEdge, LargeMissPenaltySupported)
{
    // The completion ring must size itself to the fetch latency.
    ProgramBuilder b("slowmem");
    const Addr buf = b.allocWords(64);
    b.li(intReg(1), std::int64_t(buf));
    for (int i = 0; i < 8; ++i)
        b.ldq(intReg(2 + i), intReg(1), i * 256);
    b.halt();
    CoreConfig cfg = baseConfig();
    cfg.dcache.missPenalty = 200;
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_GE(proc.stats().cycles, Cycle(200));
    EXPECT_EQ(proc.stats().committed, 10u);
}

TEST(ProcessorEdge, ConfigValidationRejectsBadMachines)
{
    const Program prog = [] {
        ProgramBuilder b("p");
        b.halt();
        return b.build();
    }();
    CoreConfig cfg;
    cfg.issueWidth = 6;
    EXPECT_THROW(Processor(cfg, prog), FatalError);
    cfg = CoreConfig{};
    cfg.dqSize = 0;
    EXPECT_THROW(Processor(cfg, prog), FatalError);
    cfg = CoreConfig{};
    cfg.numPhysRegs = 16;
    EXPECT_THROW(Processor(cfg, prog), FatalError);
    cfg = CoreConfig{};
    cfg.dcache.lineBytes = 48;
    EXPECT_THROW(Processor(cfg, prog), FatalError);
}

TEST(ProcessorEdge, TickAfterDoneIsHarmless)
{
    ProgramBuilder b("p");
    b.halt();
    CoreConfig cfg = baseConfig();
    Processor proc(cfg, b.build());
    proc.run();
    const Cycle end = proc.stats().cycles;
    proc.tick();
    proc.tick();
    EXPECT_TRUE(proc.done());
    EXPECT_EQ(proc.stats().committed, 1u);
    EXPECT_GE(proc.stats().cycles, end);
}

TEST(ProcessorEdge, EightWayClassLimitsDouble)
{
    // 8 independent fp adds per cycle limit is 4 at 8-way.
    const int n = 96;
    ProgramBuilder b("fp8");
    for (int i = 0; i < n; ++i)
        b.fadd(fpReg(1 + (i % 24)), fpReg(26), fpReg(27));
    b.halt();
    CoreConfig cfg = baseConfig();
    cfg.issueWidth = 8;
    cfg.dqSize = 64;
    Processor proc(cfg, b.build());
    proc.run();
    EXPECT_GE(proc.stats().cycles, Cycle(n / 4));
    EXPECT_LE(proc.stats().cycles, Cycle(n / 4 + 24));
}

} // namespace
} // namespace drsim
