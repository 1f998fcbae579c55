/**
 * @file
 * Differential fuzzing: randomly generated (but always-terminating)
 * programs are run through the full timing simulator under differing
 * machine configurations; every run must commit exactly the
 * architectural instruction stream of the functional emulator and
 * reach the same final state.  The emulator's fast-forward must reach
 * that state too.
 *
 * The program generator lives in fuzz_program.hh.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "fuzz_program.hh"

namespace drsim {
namespace {

struct FuzzRef
{
    std::uint64_t steps;
    std::uint64_t hash;
};

FuzzRef
reference(const Program &prog)
{
    Emulator emu(prog);
    while (!emu.fetchBlocked()) {
        emu.stepArch();
        if (emu.stepsExecuted() > 2000000)
            ADD_FAILURE() << "fuzz program did not terminate";
    }
    return {emu.stepsExecuted(), emu.stateHash()};
}

class FuzzEquivalence : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzEquivalence, AllConfigsCommitTheArchitecturalStream)
{
    const Program prog = randomProgram(GetParam());
    const FuzzRef ref = reference(prog);
    ASSERT_GT(ref.steps, 500u);

    struct Cfg
    {
        int width, dq, regs;
        ExceptionModel model;
        CacheKind cache;
        bool split;
    };
    const Cfg cfgs[] = {
        {4, 32, 64, ExceptionModel::Precise, CacheKind::LockupFree,
         false},
        {8, 64, 128, ExceptionModel::Imprecise, CacheKind::LockupFree,
         false},
        {4, 16, 40, ExceptionModel::Imprecise, CacheKind::Lockup,
         false},
        {8, 32, 512, ExceptionModel::Precise, CacheKind::Perfect,
         true},
    };
    for (const Cfg &c : cfgs) {
        CoreConfig cfg;
        cfg.issueWidth = c.width;
        cfg.dqSize = c.dq;
        cfg.numPhysRegs = c.regs;
        cfg.exceptionModel = c.model;
        cfg.cacheKind = c.cache;
        cfg.splitDispatchQueues = c.split;
        cfg.auditInterval = 509;
        Processor proc(cfg, prog);
        proc.run();
        EXPECT_EQ(proc.stats().committed, ref.steps)
            << "width=" << c.width << " regs=" << c.regs;
        EXPECT_EQ(proc.emulator().stateHash(), ref.hash)
            << "width=" << c.width << " regs=" << c.regs;
        EXPECT_EQ(proc.windowSize(), 0u);
    }
}

TEST_P(FuzzEquivalence, FastForwardReachesTheArchitecturalState)
{
    const Program prog = randomProgram(GetParam());
    const FuzzRef ref = reference(prog);

    // fastForward() stops in front of the Halt; one stepArch()
    // commits it, as the detailed core would.
    Emulator emu(prog);
    EXPECT_EQ(emu.fastForward(~std::uint64_t{0}), ref.steps - 1);
    ASSERT_FALSE(emu.fetchBlocked());
    EXPECT_TRUE(emu.stepArch().isHalt);
    EXPECT_TRUE(emu.fetchBlocked());
    EXPECT_EQ(emu.stepsExecuted(), ref.steps);
    EXPECT_EQ(emu.stateHash(), ref.hash);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{25}));

} // namespace
} // namespace drsim
