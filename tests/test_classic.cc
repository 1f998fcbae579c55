/**
 * @file
 * Tests for the classic-kernel workload family.  These kernels
 * compute known answers (queens counts, prime counts, zero
 * mismatches), which makes them end-to-end validation of the ISA,
 * the emulator, and — run through the timing core — the whole
 * machine.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/processor.hh"
#include "workloads/classic.hh"
#include "workloads/emulator.hh"

namespace drsim {
namespace {

std::uint64_t
runArchR20(const Program &prog)
{
    Emulator emu(prog);
    while (!emu.fetchBlocked()) {
        emu.stepArch();
        EXPECT_LT(emu.stepsExecuted(), 5000000u) << "runaway";
    }
    return emu.intRegBits(20);
}

// Both fields are 8 bytes wide so the struct has no padding: gtest
// prints an unprintable parameter as its raw bytes, and uninitialised
// padding would make the test name differ from build to build.
struct QueensCase
{
    std::int64_t n;
    std::uint64_t solutions;
};

class Queens : public ::testing::TestWithParam<QueensCase>
{};

TEST_P(Queens, CountsAllSolutions)
{
    const auto [n, solutions] = GetParam();
    EXPECT_EQ(runArchR20(makeQueens(static_cast<int>(n))), solutions);
}

INSTANTIATE_TEST_SUITE_P(
    KnownCounts, Queens,
    ::testing::Values(QueensCase{4, 2}, QueensCase{5, 10},
                      QueensCase{6, 4}, QueensCase{7, 40},
                      QueensCase{8, 92}, QueensCase{9, 352},
                      QueensCase{10, 724}),
    [](const ::testing::TestParamInfo<QueensCase> &pinfo) {
        return "n" + std::to_string(pinfo.param.n);
    });

// Padding-free for the same reason as QueensCase.
struct SieveCase
{
    std::int64_t limit;
    std::uint64_t primes;
};

class Sieve : public ::testing::TestWithParam<SieveCase>
{};

TEST_P(Sieve, CountsPrimesBelowLimit)
{
    const auto [limit, primes] = GetParam();
    EXPECT_EQ(runArchR20(makeSieve(static_cast<int>(limit))), primes);
}

INSTANTIATE_TEST_SUITE_P(
    KnownCounts, Sieve,
    ::testing::Values(SieveCase{10, 4}, SieveCase{100, 25},
                      SieveCase{1000, 168}, SieveCase{4000, 550}),
    [](const ::testing::TestParamInfo<SieveCase> &pinfo) {
        return "limit" + std::to_string(pinfo.param.limit);
    });

TEST(WordCopy, NoMismatches)
{
    EXPECT_EQ(runArchR20(makeWordCopy(512, 3)), 0u);
}

TEST(Daxpy, AccumulatesIntoY)
{
    const Program prog = makeDaxpy(64, 2);
    Emulator emu(prog);
    while (!emu.fetchBlocked())
        emu.stepArch();
    // After two passes y > 0 everywhere (inputs are uniform [0,1)).
    // Sample the final y element through the emulator's memory.
    // (The exact address is internal; just check the run was long
    //  enough to have done 2*64 updates.)
    EXPECT_GE(emu.stepsExecuted(), 2u * 64u * 9u);
}

TEST(Whet, StaysFiniteAndTerminates)
{
    const Program prog = makeWhet(500);
    Emulator emu(prog);
    while (!emu.fetchBlocked())
        emu.stepArch();
    const double x = emu.fpRegValue(5);
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 100.0);
}

TEST(ClassicSuite, BuildsFiveKernels)
{
    const auto suite = buildClassicSuite();
    ASSERT_EQ(suite.size(), 5u);
    for (const auto &[name, prog] : suite) {
        EXPECT_FALSE(name.empty());
        EXPECT_GT(prog.numInsts(), 10u) << name;
    }
}

TEST(ClassicSuite, BadParametersRejected)
{
    EXPECT_THROW(makeQueens(3), FatalError);
    EXPECT_THROW(makeQueens(17), FatalError);
    EXPECT_THROW(makeSieve(2), FatalError);
    EXPECT_THROW(makeDaxpy(0, 1), FatalError);
    EXPECT_THROW(makeWordCopy(1, 0), FatalError);
    EXPECT_THROW(makeWhet(0), FatalError);
}

/** The whole family through the timing core: results must match the
 *  functional run at every configuration. */
class ClassicThroughPipeline
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(ClassicThroughPipeline, MatchesFunctionalExecution)
{
    Program prog = [&]() -> Program {
        const std::string &name = GetParam();
        if (name == "daxpy")
            return makeDaxpy(512, 2);
        if (name == "sieve")
            return makeSieve(1500);
        if (name == "queens")
            return makeQueens(8);
        if (name == "wordcopy")
            return makeWordCopy(512, 2);
        return makeWhet(400);
    }();

    Emulator ref(prog);
    while (!ref.fetchBlocked())
        ref.stepArch();

    for (const int width : {4, 8}) {
        CoreConfig cfg;
        cfg.issueWidth = width;
        cfg.dqSize = width == 4 ? 32 : 64;
        cfg.numPhysRegs = 96;
        cfg.auditInterval = 499;
        Processor proc(cfg, prog);
        proc.run();
        EXPECT_EQ(proc.stats().committed, ref.stepsExecuted());
        EXPECT_EQ(proc.emulator().stateHash(), ref.stateHash());
        EXPECT_EQ(proc.emulator().intRegBits(20), ref.intRegBits(20));
    }
}

INSTANTIATE_TEST_SUITE_P(AllClassic, ClassicThroughPipeline,
                         ::testing::Values("daxpy", "sieve", "queens",
                                           "wordcopy", "whet"));

} // namespace
} // namespace drsim
