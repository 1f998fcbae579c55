/**
 * @file
 * Integration and property tests: every synthetic kernel, run through
 * the full timing simulator under many machine configurations, must
 * (a) produce exactly the architectural execution (same committed
 * instruction count and final state as the pure functional emulator),
 * (b) satisfy the machine invariants (liveness audit on), and
 * (c) behave identically at the architectural level regardless of the
 * timing configuration.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

struct ArchRef
{
    std::uint64_t steps;
    std::uint64_t hash;
};

ArchRef
archReference(const Program &prog)
{
    Emulator emu(prog);
    while (!emu.fetchBlocked())
        emu.stepArch();
    return {emu.stepsExecuted(), emu.stateHash()};
}

/** Every kernel terminates and matches its functional execution. */
class KernelEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(KernelEquivalence, TimingRunMatchesFunctionalRun)
{
    const Workload w = buildWorkload(GetParam(), 1);
    const ArchRef ref = archReference(w.program);
    ASSERT_GT(ref.steps, 100u);

    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 128;
    cfg.auditInterval = 997;

    Processor proc(cfg, w.program);
    proc.run();
    EXPECT_EQ(int(proc.stopReason()), int(StopReason::Halted));
    EXPECT_EQ(proc.stats().committed, ref.steps);
    EXPECT_EQ(proc.emulator().stateHash(), ref.hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelEquivalence,
    ::testing::Values("compress", "doduc", "espresso", "gcc1",
                      "mdljdp2", "mdljsp2", "ora", "su2cor",
                      "tomcatv"));

/** Architectural results are independent of the timing configuration. */
struct TimingConfig
{
    int issueWidth;
    int dqSize;
    int numPhysRegs;
    ExceptionModel model;
    CacheKind cache;
};

// Print the case by value, as for ClassLimitCase in
// test_processor_edge.cc: the raw-byte dump would include the
// struct's uninitialised padding and change the test name per build.
void
PrintTo(const TimingConfig &tc, std::ostream *os)
{
    *os << "w" << tc.issueWidth << "-dq" << tc.dqSize << "-r"
        << tc.numPhysRegs << "-" << exceptionModelName(tc.model) << "-"
        << cacheKindName(tc.cache);
}

class TimingIndependence
    : public ::testing::TestWithParam<TimingConfig>
{};

TEST_P(TimingIndependence, ArchitecturalResultUnchanged)
{
    const TimingConfig &tc = GetParam();
    const Workload w = buildWorkload("gcc1", 1); // branchiest kernel
    const ArchRef ref = archReference(w.program);

    CoreConfig cfg;
    cfg.issueWidth = tc.issueWidth;
    cfg.dqSize = tc.dqSize;
    cfg.numPhysRegs = tc.numPhysRegs;
    cfg.exceptionModel = tc.model;
    cfg.cacheKind = tc.cache;
    cfg.auditInterval = 1009;

    Processor proc(cfg, w.program);
    proc.run();
    EXPECT_EQ(proc.stats().committed, ref.steps);
    EXPECT_EQ(proc.emulator().stateHash(), ref.hash);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TimingIndependence,
    ::testing::Values(
        TimingConfig{4, 8, 64, ExceptionModel::Precise,
                     CacheKind::LockupFree},
        TimingConfig{4, 32, 32, ExceptionModel::Precise,
                     CacheKind::LockupFree},
        TimingConfig{4, 32, 33, ExceptionModel::Imprecise,
                     CacheKind::LockupFree},
        TimingConfig{4, 32, 128, ExceptionModel::Imprecise,
                     CacheKind::Lockup},
        TimingConfig{4, 64, 96, ExceptionModel::Precise,
                     CacheKind::Perfect},
        TimingConfig{8, 64, 128, ExceptionModel::Precise,
                     CacheKind::LockupFree},
        TimingConfig{8, 64, 64, ExceptionModel::Imprecise,
                     CacheKind::LockupFree},
        TimingConfig{8, 16, 256, ExceptionModel::Imprecise,
                     CacheKind::Lockup},
        TimingConfig{8, 128, 512, ExceptionModel::Precise,
                     CacheKind::Perfect}));

TEST(Integration, ImpreciseNeverSlowerAcrossKernels)
{
    // Under tight register files the imprecise model frees registers
    // earlier, so it can only help (paper Section 3.2).
    for (const char *name : {"compress", "espresso", "su2cor"}) {
        const Workload w = buildWorkload(name, 1);
        CoreConfig precise;
        precise.issueWidth = 4;
        precise.dqSize = 32;
        precise.numPhysRegs = 40;
        precise.exceptionModel = ExceptionModel::Precise;
        CoreConfig imprecise = precise;
        imprecise.exceptionModel = ExceptionModel::Imprecise;

        Processor pp(precise, w.program);
        pp.run();
        Processor pi(imprecise, w.program);
        pi.run();
        EXPECT_LE(pi.stats().cycles, pp.stats().cycles)
            << name << ": imprecise must not be slower";
    }
}

TEST(Integration, WiderMachineNeverSlower)
{
    for (const char *name : {"doduc", "tomcatv"}) {
        const Workload w = buildWorkload(name, 1);
        CoreConfig four;
        four.issueWidth = 4;
        four.dqSize = 32;
        four.numPhysRegs = 2048;
        CoreConfig eight = four;
        eight.issueWidth = 8;
        eight.dqSize = 64;

        Processor p4(four, w.program);
        p4.run();
        Processor p8(eight, w.program);
        p8.run();
        EXPECT_LE(p8.stats().cycles, p4.stats().cycles) << name;
        EXPECT_GT(p8.stats().commitIpc(),
                  p4.stats().commitIpc() * 0.99)
            << name;
    }
}

TEST(Integration, LargerDqNeverHurtsIpcMuch)
{
    const Workload w = buildWorkload("espresso", 1);
    double prev_ipc = 0.0;
    for (const int dq : {8, 16, 32, 64}) {
        CoreConfig cfg;
        cfg.issueWidth = 4;
        cfg.dqSize = dq;
        cfg.numPhysRegs = 2048;
        Processor proc(cfg, w.program);
        proc.run();
        const double ipc = proc.stats().commitIpc();
        EXPECT_GT(ipc, prev_ipc * 0.98)
            << "dq=" << dq << " should not regress";
        prev_ipc = ipc;
    }
}

TEST(Integration, LiveRegistersGrowWithDispatchQueue)
{
    // The Figure-3 trend: a larger queue keeps more registers live.
    const Workload w = buildWorkload("su2cor", 1);
    std::uint64_t prev = 0;
    for (const int dq : {8, 64}) {
        CoreConfig cfg;
        cfg.issueWidth = 4;
        cfg.dqSize = dq;
        cfg.numPhysRegs = 2048;
        Processor proc(cfg, w.program);
        proc.run();
        const std::uint64_t p90 =
            proc.stats().live[0][3].percentile(0.9);
        EXPECT_GT(p90, prev);
        prev = p90;
    }
}

TEST(Integration, SuiteRunProducesCompleteResults)
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 256;
    cfg.maxCommitted = 3000;
    const auto suite = buildSpec92Suite(1);
    const SuiteResult res = runSuite(cfg, suite);
    ASSERT_EQ(res.runs().size(), 9u);
    for (const auto &r : res.runs()) {
        EXPECT_GT(r.proc.committed, 0u) << r.workload;
        EXPECT_GT(r.commitIpc(), 0.1) << r.workload;
        EXPECT_LE(r.commitIpc(), 4.0) << r.workload;
    }
    EXPECT_GT(res.avgCommitIpc(), 0.5);
    EXPECT_GE(res.livePercentile(RegClass::Int,
                                 LiveLevel::PreciseLive, 0.9),
              31u);
}

TEST(Integration, InstructionCacheNearlyAlwaysHits)
{
    // The paper reports <1% I-cache miss rates; our kernels are small
    // loops, so the modeled I-cache must be nearly invisible.
    for (const char *name : {"compress", "tomcatv"}) {
        const Workload w = buildWorkload(name, 1);
        CoreConfig cfg;
        cfg.issueWidth = 4;
        cfg.dqSize = 32;
        cfg.numPhysRegs = 256;
        Processor proc(cfg, w.program);
        proc.run();
        const double rate =
            double(proc.icache().misses()) /
            double(std::max<std::uint64_t>(1, proc.icache().accesses()));
        EXPECT_LT(rate, 0.01) << name;
    }
}

TEST(Integration, ExecutedAtLeastCommitted)
{
    const auto suite = buildSpec92Suite(1);
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 128;
    cfg.maxCommitted = 4000;
    for (const auto &w : suite) {
        Processor proc(cfg, w.program);
        proc.run();
        EXPECT_GE(proc.stats().executed, proc.stats().committed)
            << w.spec->name;
        EXPECT_GE(proc.stats().executedLoads,
                  proc.stats().committedLoads)
            << w.spec->name;
    }
}

} // namespace
} // namespace drsim
