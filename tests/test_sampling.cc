/**
 * @file
 * Tests for SMARTS-style sampled simulation: the sampling-spec parser,
 * SamplingConfig validation, the fast-forward/warm-up/measure driver
 * in runOneSampled(), its instruction-budget semantics, and the
 * invariant that full-detail runs are untouched by the feature.
 */

#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "exp/registry.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

using exp::parseSamplingSpec;
using exp::RunContext;

CoreConfig
baseConfig()
{
    CoreConfig cfg = exp::paperConfig(4, 96);
    return cfg;
}

TEST(SamplingSpec, FullTripleParses)
{
    const SamplingConfig sc = parseSamplingSpec("40000:1000:4000");
    EXPECT_EQ(sc.interval, 40000u);
    EXPECT_EQ(sc.window, 1000u);
    EXPECT_EQ(sc.warmup, 4000u);
    EXPECT_TRUE(sc.enabled());
}

TEST(SamplingSpec, DefaultsDeriveFromInterval)
{
    // window defaults to max(interval/20, 1); warmup defaults to
    // window.
    const SamplingConfig sc = parseSamplingSpec("40000");
    EXPECT_EQ(sc.interval, 40000u);
    EXPECT_EQ(sc.window, 2000u);
    EXPECT_EQ(sc.warmup, 2000u);

    const SamplingConfig sw = parseSamplingSpec("40000:500");
    EXPECT_EQ(sw.window, 500u);
    EXPECT_EQ(sw.warmup, 500u);
}

TEST(SamplingSpec, FourthFieldIsRejected)
{
    // I:W:U is the whole grammar: every window warms its whole gap,
    // so there is no warming horizon to give.
    EXPECT_THROW(parseSamplingSpec("3000:200:400:500"), FatalError);
}

TEST(SamplingSpec, RejectsGarbageAndInfeasible)
{
    EXPECT_THROW(parseSamplingSpec(""), FatalError);
    EXPECT_THROW(parseSamplingSpec("abc"), FatalError);
    EXPECT_THROW(parseSamplingSpec("1000:x"), FatalError);
    EXPECT_THROW(parseSamplingSpec("1000:2:3:4:5"), FatalError);
    EXPECT_THROW(parseSamplingSpec("0"), FatalError);
    // interval must exceed warmup + window
    EXPECT_THROW(parseSamplingSpec("1000:600:400"), FatalError);
}

TEST(SamplingSpec, InfeasibleSpecNamesTheConfigRule)
{
    // A spec that parses but cannot run is refused with the config
    // table's finding, as the same sampling in a machine config is.
    const std::pair<const char *, const char *> cases[] = {
        {"1000:0:10", "[sampling-zero-window]"},
        {"1000:10:1000", "[sampling-warmup-ge-interval]"},
        {"1000:600:400", "[sampling-no-fast-forward]"},
    };
    for (const auto &[spec, rule] : cases) {
        try {
            parseSamplingSpec(spec);
            ADD_FAILURE() << spec << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(rule),
                      std::string::npos)
                << spec << ": " << e.what();
        }
    }
}

TEST(SamplingSpec, RejectsWrappingAndSaturatingFields)
{
    // warmup + window wraps to 99, below the interval: still refused.
    EXPECT_THROW(parseSamplingSpec("1000:18446744073709551615:100"),
                 FatalError);
    EXPECT_THROW(parseSamplingSpec("1000:100:18446744073709551615"),
                 FatalError);
    // Beyond 2^64 - 1: refused, not saturated to UINT64_MAX.
    EXPECT_THROW(parseSamplingSpec("99999999999999999999999"),
                 FatalError);
}

TEST(SamplingSpec, ConfigValidateRejectsWrappingWindow)
{
    CoreConfig cfg = baseConfig();
    cfg.sampling.interval = 1000;
    cfg.sampling.warmup = 100;
    cfg.sampling.window = std::numeric_limits<std::uint64_t>::max();
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SamplingSpec, ConfigValidateRejectsInfeasible)
{
    CoreConfig cfg = baseConfig();
    cfg.sampling.interval = 1000;
    cfg.sampling.window = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.sampling.window = 600;
    cfg.sampling.warmup = 500;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.sampling.warmup = 100;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SamplingSpec, RunContextReadsEnvironment)
{
    ::setenv("DRSIM_SAMPLE", "20000:500:1500", 1);
    const RunContext ctx = RunContext::fromEnv();
    ::unsetenv("DRSIM_SAMPLE");
    EXPECT_EQ(ctx.sampling.interval, 20000u);
    EXPECT_EQ(ctx.sampling.window, 500u);
    EXPECT_EQ(ctx.sampling.warmup, 1500u);
    EXPECT_FALSE(RunContext::fromEnv().sampling.enabled());
}

TEST(SampledRun, DisabledByDefault)
{
    const Workload w = buildWorkload("compress", 1);
    const SimResult r = simulate(baseConfig(), w);
    EXPECT_FALSE(r.sampled.enabled);
    EXPECT_EQ(r.sampled.windows, 0u);
    EXPECT_EQ(r.stopReason, StopReason::Halted);
}

TEST(SampledRun, AlternatesPhasesAndEstimates)
{
    const Workload w = buildWorkload("compress", 2);
    CoreConfig full_cfg = baseConfig();
    const SimResult full = simulate(full_cfg, w);

    CoreConfig cfg = full_cfg;
    cfg.sampling = parseSamplingSpec("8000:400:1600");
    const SimResult r = simulate(cfg, w);

    EXPECT_TRUE(r.sampled.enabled);
    EXPECT_EQ(r.stopReason, StopReason::Halted);
    EXPECT_GE(r.sampled.windows, 2u);
    EXPECT_GT(r.sampled.fastForwarded, 0u);
    EXPECT_GT(r.sampled.warmupInsts, 0u);
    EXPECT_GT(r.sampled.measuredInsts, 0u);
    EXPECT_GT(r.sampled.measuredCycles, 0u);
    // Every committed instruction is either detailed or
    // fast-forwarded; together they cover the whole program.
    EXPECT_EQ(r.proc.committed + r.sampled.fastForwarded,
              full.proc.committed);
    // The sampled run must be much shorter in detailed cycles.
    EXPECT_LT(r.proc.cycles, full.proc.cycles / 2);
    // The estimate is in the right ballpark of the true IPC (the CI
    // coverage contract itself is enforced by sampling_validate and
    // the simspeed benchmark on the full-size workloads).
    EXPECT_NEAR(r.sampled.ipcEstimate, full.commitIpc(),
                0.5 * full.commitIpc());
    EXPECT_GT(r.sampled.ci95, 0.0);
}

TEST(SampledRun, Deterministic)
{
    const Workload w = buildWorkload("espresso", 1);
    CoreConfig cfg = baseConfig();
    cfg.sampling = parseSamplingSpec("8000:400:1600");
    const SimResult a = simulate(cfg, w);
    const SimResult b = simulate(cfg, w);
    EXPECT_EQ(a.sampled.windows, b.sampled.windows);
    EXPECT_EQ(a.sampled.fastForwarded, b.sampled.fastForwarded);
    EXPECT_EQ(a.sampled.measuredCycles, b.sampled.measuredCycles);
    EXPECT_EQ(a.sampled.ipcEstimate, b.sampled.ipcEstimate);
    EXPECT_EQ(a.sampled.ci95, b.sampled.ci95);
    EXPECT_EQ(a.proc.cycles, b.proc.cycles);
}

TEST(SampledRun, BudgetCountsFastForwardedInstructions)
{
    const Workload w = buildWorkload("gcc1", 2);
    CoreConfig cfg = baseConfig();
    cfg.sampling = parseSamplingSpec("8000:400:1600");

    const SimResult unlimited = simulate(cfg, w);
    const std::uint64_t total =
        unlimited.proc.committed + unlimited.sampled.fastForwarded;

    cfg.maxCommitted = total / 2;
    const SimResult r = simulate(cfg, w);
    EXPECT_EQ(r.stopReason, StopReason::InstLimit);
    const std::uint64_t advanced =
        r.proc.committed + r.sampled.fastForwarded;
    EXPECT_GE(advanced, cfg.maxCommitted);
    // The driver stops at phase granularity, never more than one
    // phase past the budget.
    EXPECT_LE(advanced, cfg.maxCommitted + cfg.sampling.interval);
}

TEST(SampledRun, ShortProgramDegradesToDetailed)
{
    // A program shorter than one sampling period runs fully detailed
    // and reports the plain IPC as its estimate.
    const Workload w = buildWorkload("ora", 1);
    CoreConfig full_cfg = baseConfig();
    const SimResult full = simulate(full_cfg, w);

    CoreConfig cfg = full_cfg;
    cfg.sampling.interval = 10 * full.proc.committed;
    cfg.sampling.window = full.proc.committed;
    cfg.sampling.warmup = full.proc.committed;
    const SimResult r = simulate(cfg, w);
    EXPECT_EQ(r.stopReason, StopReason::Halted);
    EXPECT_EQ(r.proc.committed, full.proc.committed);
    EXPECT_EQ(r.sampled.fastForwarded, 0u);
    EXPECT_GT(r.sampled.ipcEstimate, 0.0);
}

TEST(SampledRun, FullDetailRunsAreUnaffected)
{
    // Bit-identical statistics with the feature compiled in but
    // disabled: the sampled machinery must be invisible to normal
    // runs.
    const Workload w = buildWorkload("tomcatv", 1);
    const CoreConfig cfg = baseConfig();
    const SimResult a = simulate(cfg, w);
    const SimResult b = simulate(cfg, w);
    EXPECT_EQ(a.proc.cycles, b.proc.cycles);
    EXPECT_EQ(a.proc.committed, b.proc.committed);
    for (int c = 0; c < kNumCycleCauses; ++c)
        EXPECT_EQ(a.proc.causeCycles[c], b.proc.causeCycles[c]);
    EXPECT_FALSE(a.sampled.enabled);
}

TEST(SampledRun, CauseCyclesStillSumToCycles)
{
    // Stat gating suppresses only the distribution histograms; the
    // per-cycle cause accounting must stay exhaustive even across
    // warm-up and fast-forward boundaries.
    const Workload w = buildWorkload("su2cor", 1);
    CoreConfig cfg = baseConfig();
    cfg.sampling = parseSamplingSpec("8000:400:1600");
    const SimResult r = simulate(cfg, w);
    std::uint64_t sum = 0;
    for (int c = 0; c < kNumCycleCauses; ++c)
        sum += r.proc.causeCycles[c];
    EXPECT_EQ(sum, std::uint64_t(r.proc.cycles));
}

} // namespace
} // namespace drsim
