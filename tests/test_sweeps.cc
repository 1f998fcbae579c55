/**
 * @file
 * Property sweeps: one mid-sized, branchy, miss-heavy program run
 * under a grid of machine configurations; machine-wide invariants
 * must hold at every point, and the architectural outcome must be
 * identical everywhere.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/processor.hh"
#include "workloads/builder.hh"

namespace drsim {
namespace {

/** A torture loop: data-dependent branches, random loads from a table
 *  larger than the cache, stores, an FP chain, and a call. */
const Program &
tortureProgram()
{
    static const Program prog = [] {
        ProgramBuilder b("torture");
        Rng rng(0xabcdef);
        constexpr int kWords = 16384; // 128 KB
        const Addr tab = b.allocWords(kWords);
        for (int i = 0; i < kWords; i += 3)
            b.initWord(tab + Addr(i) * 8, rng.next());

        const auto fn = b.newLabel();
        const auto start = b.newLabel();
        b.br(start);
        b.bind(fn);
        b.muli(intReg(10), intReg(9), 3);
        b.ret(intReg(26));
        b.bind(start);
        b.li(intReg(1), std::int64_t(tab));
        b.li(intReg(2), 4000);
        b.li(intReg(3), 0x1357'9bdf);
        b.li(intReg(9), 7);
        const auto top = b.here();
        const auto skip = b.newLabel();
        const auto nocall = b.newLabel();
        // xorshift
        b.slli(intReg(4), intReg(3), 13);
        b.xor_(intReg(3), intReg(3), intReg(4));
        b.srli(intReg(4), intReg(3), 7);
        b.xor_(intReg(3), intReg(3), intReg(4));
        // random load
        b.andi(intReg(5), intReg(3), kWords - 1);
        b.slli(intReg(5), intReg(5), 3);
        b.add(intReg(5), intReg(5), intReg(1));
        b.ldq(intReg(6), intReg(5), 0);
        // data-dependent branch
        b.andi(intReg(7), intReg(6), 1);
        b.beq(intReg(7), skip);
        b.stq(intReg(3), intReg(5), 0);
        b.itof(fpReg(1), intReg(6));
        b.fadd(fpReg(2), fpReg(2), fpReg(1));
        b.bind(skip);
        // occasional call
        b.andi(intReg(7), intReg(3), 15);
        b.bne(intReg(7), nocall);
        b.jsr(intReg(26), fn);
        b.add(intReg(9), intReg(10), intReg(9));
        b.bind(nocall);
        // occasional divide
        b.andi(intReg(7), intReg(3), 31);
        b.bne(intReg(7), top);
        b.fdivd(fpReg(3), fpReg(2), fpReg(1));
        b.fadd(fpReg(2), fpReg(3), fpReg(2));
        b.subi(intReg(2), intReg(2), 1);
        b.bne(intReg(2), top);
        b.halt();
        return b.build();
    }();
    return prog;
}

struct SweepPoint
{
    int width;
    int dq;
    int regs;
    ExceptionModel model;
    CacheKind cache;
};

std::vector<SweepPoint>
sweepGrid()
{
    std::vector<SweepPoint> grid;
    for (const int width : {4, 8})
        for (const int dq : {8, 32, 128})
            for (const int regs : {32, 48, 96, 512})
                for (const auto model : {ExceptionModel::Precise,
                                         ExceptionModel::Imprecise})
                    grid.push_back({width, dq, regs, model,
                                    CacheKind::LockupFree});
    // A few cache-organization corners on top.
    grid.push_back({4, 32, 64, ExceptionModel::Precise,
                    CacheKind::Lockup});
    grid.push_back({4, 32, 64, ExceptionModel::Imprecise,
                    CacheKind::Perfect});
    grid.push_back({8, 64, 128, ExceptionModel::Precise,
                    CacheKind::Perfect});
    grid.push_back({8, 64, 128, ExceptionModel::Imprecise,
                    CacheKind::Lockup});
    return grid;
}

struct Reference
{
    std::uint64_t steps;
    std::uint64_t hash;
};

const Reference &
reference()
{
    static const Reference ref = [] {
        Emulator emu(tortureProgram());
        while (!emu.fetchBlocked())
            emu.stepArch();
        return Reference{emu.stepsExecuted(), emu.stateHash()};
    }();
    return ref;
}

class MachineSweep : public ::testing::TestWithParam<SweepPoint>
{};

TEST_P(MachineSweep, InvariantsHoldEverywhere)
{
    const SweepPoint &p = GetParam();
    CoreConfig cfg;
    cfg.issueWidth = p.width;
    cfg.dqSize = p.dq;
    cfg.numPhysRegs = p.regs;
    cfg.exceptionModel = p.model;
    cfg.cacheKind = p.cache;
    cfg.auditInterval = 257; // aggressive self-checking

    Processor proc(cfg, tortureProgram());
    std::size_t max_dq = 0;
    while (!proc.done()) {
        proc.tick();
        max_dq = std::max(max_dq, proc.dqOccupancy());
    }
    const ProcStats &s = proc.stats();

    // Architectural equivalence: exactly the functional execution.
    EXPECT_EQ(s.committed, reference().steps);
    EXPECT_EQ(proc.emulator().stateHash(), reference().hash);

    // Machine-wide invariants.
    EXPECT_LE(max_dq, std::size_t(p.dq));
    EXPECT_GE(s.executed, s.committed);
    EXPECT_LE(s.committed, Cycle(2 * p.width) * s.cycles);
    EXPECT_LE(s.executed, Cycle(p.width) * s.cycles);
    EXPECT_LE(s.mispredictedBranches, s.executedCondBranches);
    EXPECT_GE(s.executedCondBranches, s.committedCondBranches);
    EXPECT_LE(s.noFreeRegCycles, s.cycles);
    EXPECT_EQ(proc.windowSize(), 0u); // fully drained at halt

    // Live-register histograms: bounded by the file and nested.
    for (int c = 0; c < kNumRegClasses; ++c) {
        EXPECT_LE(s.live[c][3].maxValue(), std::uint64_t(p.regs));
        for (int lvl = 1; lvl < 4; ++lvl)
            EXPECT_GE(s.live[c][lvl].mean(), s.live[c][lvl - 1].mean());
        EXPECT_EQ(s.live[c][0].totalSamples(), s.cycles);
    }

    // Under the imprecise model nothing ever waits for the precise
    // conditions: the top two nested levels coincide.
    if (p.model == ExceptionModel::Imprecise) {
        EXPECT_EQ(s.live[0][3].mean(), s.live[0][2].mean());
        EXPECT_EQ(s.live[1][3].mean(), s.live[1][2].mean());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MachineSweep, ::testing::ValuesIn(sweepGrid()),
    [](const ::testing::TestParamInfo<SweepPoint> &pinfo) {
        const SweepPoint &p = pinfo.param;
        // Appended piecewise: GCC 12 at -O3 flags `"w" + std::string`
        // with a false -Wrestrict positive.
        std::string s = "w";
        s += std::to_string(p.width) + "_dq" + std::to_string(p.dq) +
             "_r" + std::to_string(p.regs) + "_";
        s += p.model == ExceptionModel::Precise ? "prec" : "impr";
        s += "_";
        s += p.cache == CacheKind::Perfect
                 ? "perfect"
                 : (p.cache == CacheKind::Lockup ? "lockup" : "lf");
        return s;
    });

} // namespace
} // namespace drsim
