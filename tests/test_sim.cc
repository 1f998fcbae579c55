/**
 * @file
 * Unit tests for the simulation driver and the paper's cross-benchmark
 * averaging rules (Section 3.1, footnote 2).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"

namespace drsim {
namespace {

CoreConfig
quickConfig()
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 128;
    cfg.maxCommitted = 5000;
    return cfg;
}

Program
tinyLoop(const std::string &name, int trips)
{
    ProgramBuilder b(name);
    b.li(intReg(1), trips);
    b.li(intReg(2), 0);
    const auto top = b.here();
    b.addi(intReg(2), intReg(2), 1);
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    return b.build();
}

TEST(Simulator, RunsProgramToHalt)
{
    CoreConfig cfg = quickConfig();
    cfg.maxCommitted = 0;
    const Program p = tinyLoop("t", 100);
    const SimResult res = simulateProgram(cfg, p);
    EXPECT_EQ(int(res.stopReason), int(StopReason::Halted));
    EXPECT_EQ(res.proc.committed, 303u);
    EXPECT_GT(res.commitIpc(), 0.0);
}

TEST(Simulator, WorkloadByName)
{
    CoreConfig cfg = quickConfig();
    cfg.maxCommitted = 2000;
    const Workload w = buildWorkload("espresso", 2);
    const SimResult res = simulate(cfg, w);
    EXPECT_EQ(res.workload, "espresso");
    EXPECT_FALSE(res.fpIntensive);
    EXPECT_GT(res.proc.committed, 0u);
}

TEST(Simulator, UnknownWorkloadFatal)
{
    EXPECT_THROW(buildWorkload("nope", 1), FatalError);
}

TEST(Simulator, ScaleBelowOneFatal)
{
    // At scale 0 most kernels' loops never terminate.
    EXPECT_THROW(buildWorkload("compress", 0), FatalError);
    EXPECT_THROW(buildWorkload("compress", -2), FatalError);
    EXPECT_THROW(buildSpec92Suite(0), FatalError);
}

TEST(Simulator, SuiteHasNineBenchmarksInTableOrder)
{
    const auto &specs = spec92Specs();
    ASSERT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs[0].name, "compress");
    EXPECT_EQ(specs[1].name, "doduc");
    EXPECT_EQ(specs[2].name, "espresso");
    EXPECT_EQ(specs[3].name, "gcc1");
    EXPECT_EQ(specs[4].name, "mdljdp2");
    EXPECT_EQ(specs[5].name, "mdljsp2");
    EXPECT_EQ(specs[6].name, "ora");
    EXPECT_EQ(specs[7].name, "su2cor");
    EXPECT_EQ(specs[8].name, "tomcatv");
    // FP-intensive flags (the FP-register averaging set).
    int fp_count = 0;
    for (const auto &s : specs)
        fp_count += s.fpIntensive;
    EXPECT_EQ(fp_count, 6);
    EXPECT_FALSE(specs[0].fpIntensive); // compress
    EXPECT_FALSE(specs[2].fpIntensive); // espresso
    EXPECT_FALSE(specs[3].fpIntensive); // gcc1
}

TEST(Simulator, SuiteAveragesAreMeans)
{
    // Two synthetic runs with known IPCs: the suite averages must be
    // their arithmetic means.
    CoreConfig cfg = quickConfig();
    cfg.maxCommitted = 0;
    std::vector<SimResult> runs;
    runs.push_back(simulateProgram(cfg, tinyLoop("a", 50)));
    runs.push_back(simulateProgram(cfg, tinyLoop("b", 500)));
    const double mean =
        (runs[0].commitIpc() + runs[1].commitIpc()) / 2.0;
    SuiteResult suite({runs[0], runs[1]});
    EXPECT_NEAR(suite.avgCommitIpc(), mean, 1e-12);
}

TEST(Simulator, FpCurvesUseOnlyFpBenchmarks)
{
    CoreConfig cfg = quickConfig();
    cfg.maxCommitted = 0;
    SimResult int_run = simulateProgram(cfg, tinyLoop("int", 50));
    int_run.fpIntensive = false;
    SimResult fp_run = simulateProgram(cfg, tinyLoop("fp", 50));
    fp_run.fpIntensive = true;
    // Tag the FP run with a distinctive fake FP histogram.
    fp_run.proc.live[int(RegClass::Fp)][3] = Histogram();
    for (int i = 0; i < 100; ++i)
        fp_run.proc.live[int(RegClass::Fp)][3].addSample(77);
    // And the int run with a different one that must be ignored.
    int_run.proc.live[int(RegClass::Fp)][3] = Histogram();
    for (int i = 0; i < 100; ++i)
        int_run.proc.live[int(RegClass::Fp)][3].addSample(5);

    SuiteResult suite({int_run, fp_run});
    EXPECT_EQ(suite.livePercentile(RegClass::Fp,
                                   LiveLevel::PreciseLive, 0.9),
              77u);
    // Integer curves average across all benchmarks.
    const auto int_density =
        suite.avgDensity(RegClass::Int, LiveLevel::PreciseLive);
    EXPECT_FALSE(int_density.empty());
}

TEST(Simulator, RuntimeNormalizationEqualizesBenchmarks)
{
    // A benchmark running 100x longer must not dominate the averaged
    // distribution (footnote 2 of the paper).
    CoreConfig cfg = quickConfig();
    cfg.maxCommitted = 0;
    SimResult small = simulateProgram(cfg, tinyLoop("s", 20));
    SimResult large = simulateProgram(cfg, tinyLoop("l", 5000));
    small.proc.live[0][3] = Histogram();
    small.proc.live[0][3].addSample(10); // 1 cycle at 10 live
    large.proc.live[0][3] = Histogram();
    for (int i = 0; i < 100000; ++i)
        large.proc.live[0][3].addSample(50);

    SuiteResult suite({small, large});
    const auto d =
        suite.avgDensity(RegClass::Int, LiveLevel::PreciseLive);
    EXPECT_NEAR(d[10], 0.5, 1e-9);
    EXPECT_NEAR(d[50], 0.5, 1e-9);
}

TEST(Simulator, CoverageCurveReachesOne)
{
    CoreConfig cfg = quickConfig();
    const Workload w = buildWorkload("doduc", 1);
    const SimResult res = simulate(cfg, w);
    SuiteResult suite({res});
    const auto cov =
        suite.avgCoverage(RegClass::Int, LiveLevel::PreciseLive);
    ASSERT_FALSE(cov.empty());
    EXPECT_NEAR(cov.back(), 1.0, 1e-9);
    for (std::size_t i = 1; i < cov.size(); ++i)
        EXPECT_GE(cov[i] + 1e-12, cov[i - 1]);
}

TEST(Simulator, NestedLevelsOrdered)
{
    CoreConfig cfg = quickConfig();
    const Workload w = buildWorkload("compress", 2);
    const SimResult res = simulate(cfg, w);
    SuiteResult suite({res});
    const auto p_inflight = suite.livePercentile(
        RegClass::Int, LiveLevel::InFlight, 0.9);
    const auto p_queue = suite.livePercentile(
        RegClass::Int, LiveLevel::PlusQueue, 0.9);
    const auto p_imprecise = suite.livePercentile(
        RegClass::Int, LiveLevel::ImpreciseLive, 0.9);
    const auto p_precise = suite.livePercentile(
        RegClass::Int, LiveLevel::PreciseLive, 0.9);
    EXPECT_LE(p_inflight, p_queue);
    EXPECT_LE(p_queue, p_imprecise);
    EXPECT_LE(p_imprecise, p_precise);
}

TEST(Simulator, EmptySuiteRejected)
{
    EXPECT_THROW(SuiteResult(std::vector<SimResult>{}), FatalError);
}

} // namespace
} // namespace drsim
