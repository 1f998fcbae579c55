/**
 * @file
 * Unit tests for the static CoreConfig feasibility screen
 * (src/core/config_check): one test per rule id, the register-file
 * port arithmetic, requireFeasibleConfig()'s collect-all behavior,
 * and the spec-parse-time wiring through exp::expandExperiment.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.hh"
#include "core/config_check.hh"
#include "exp/registry.hh"

namespace drsim {
namespace {

bool
hasRule(const std::vector<ConfigFinding> &findings, const char *rule)
{
    for (const ConfigFinding &f : findings) {
        if (std::string(f.rule) == rule)
            return true;
    }
    return false;
}

const ConfigFinding *
findRule(const std::vector<ConfigFinding> &findings, const char *rule)
{
    for (const ConfigFinding &f : findings) {
        if (std::string(f.rule) == rule)
            return &f;
    }
    return nullptr;
}

TEST(ConfigCheck, DefaultAndPaperConfigsAreClean)
{
    EXPECT_TRUE(checkCoreConfig(CoreConfig{}).empty());
    EXPECT_TRUE(checkCoreConfig(exp::paperConfig(4, 128)).empty());
    EXPECT_TRUE(checkCoreConfig(exp::paperConfig(8, 256)).empty());
}

TEST(ConfigCheck, RejectsUnsupportedIssueWidth)
{
    CoreConfig cfg;
    cfg.issueWidth = 5;
    const auto findings = checkCoreConfig(cfg);
    EXPECT_TRUE(hasRule(findings, "issue-width"));
    // Derived-limit rules are suppressed while the width is bogus.
    EXPECT_FALSE(hasRule(findings, "window-lt-issue-width"));
}

TEST(ConfigCheck, NarrowWidthKeepsPerClassIssueLimitsAlive)
{
    // issueWidth = 2 divides down to width/4 = 0 for the fp-divide
    // and control classes; the derived getters floor at 1, so the
    // config is both clean and deadlock-free.
    CoreConfig cfg;
    cfg.issueWidth = 2;
    cfg.dqSize = 16;
    EXPECT_GE(cfg.fpDivIssueLimit(), 1);
    EXPECT_GE(cfg.ctrlIssueLimit(), 1);
    EXPECT_GE(cfg.fpIssueLimit(), 1);
    EXPECT_GE(cfg.memIssueLimit(), 1);
    EXPECT_GE(cfg.numFpDividers(), 1);
    const auto findings = checkCoreConfig(cfg);
    EXPECT_FALSE(hasRule(findings, "issue-width"));
    EXPECT_FALSE(hasRule(findings, "issue-class-starved"));
}

TEST(ConfigCheck, RejectsUnknownPredictor)
{
    CoreConfig cfg;
    cfg.predictor = "perceptron";
    const auto findings = checkCoreConfig(cfg);
    const ConfigFinding *f = findRule(findings, "unknown-predictor");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->error);
    // The message teaches the valid spellings.
    EXPECT_NE(f->message.find("mcfarling"), std::string::npos);
    EXPECT_NE(f->message.find("tage"), std::string::npos);

    cfg.predictor = "gshare";
    EXPECT_FALSE(hasRule(checkCoreConfig(cfg), "unknown-predictor"));
}

TEST(ConfigCheck, ResultBusRules)
{
    CoreConfig cfg;
    cfg.resultBuses = -1;
    EXPECT_TRUE(
        hasRule(checkCoreConfig(cfg), "negative-result-buses"));

    // Fewer buses than half the issue width is legal but suspicious.
    cfg.resultBuses = 1; // issueWidth 4
    const auto findings = checkCoreConfig(cfg);
    const ConfigFinding *f =
        findRule(findings, "result-buses-lt-half-width");
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->error);

    cfg.resultBuses = 2;
    EXPECT_FALSE(hasRule(checkCoreConfig(cfg),
                         "result-buses-lt-half-width"));
    cfg.resultBuses = 0; // unlimited: clean
    EXPECT_TRUE(checkCoreConfig(cfg).empty());
}

TEST(ConfigCheck, RejectsWindowSmallerThanIssueWidth)
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 3;
    EXPECT_TRUE(
        hasRule(checkCoreConfig(cfg), "window-lt-issue-width"));
    cfg.dqSize = 4;
    EXPECT_FALSE(
        hasRule(checkCoreConfig(cfg), "window-lt-issue-width"));
}

TEST(ConfigCheck, RejectsStarvedSplitMemoryQueue)
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.splitDispatchQueues = true;
    cfg.dqSize = 5; // 2:1:1 split leaves the memory queue empty
    ASSERT_LT(cfg.memQueueSize(), 1);
    EXPECT_TRUE(hasRule(checkCoreConfig(cfg), "split-queue-starved"));
    cfg.dqSize = 8;
    EXPECT_FALSE(
        hasRule(checkCoreConfig(cfg), "split-queue-starved"));
}

TEST(ConfigCheck, RejectsTooFewPhysicalRegisters)
{
    CoreConfig cfg;
    cfg.numPhysRegs = kNumVirtualRegs - 1;
    EXPECT_TRUE(hasRule(checkCoreConfig(cfg), "phys-regs-lt-virtual"));
    cfg.numPhysRegs = kNumVirtualRegs;
    EXPECT_FALSE(
        hasRule(checkCoreConfig(cfg), "phys-regs-lt-virtual"));
}

TEST(ConfigCheck, RejectsZeroSamplingWindow)
{
    CoreConfig cfg;
    cfg.sampling.interval = 1000;
    cfg.sampling.window = 0;
    cfg.sampling.warmup = 10;
    EXPECT_TRUE(hasRule(checkCoreConfig(cfg), "sampling-zero-window"));
}

TEST(ConfigCheck, RejectsWarmupNotShorterThanInterval)
{
    CoreConfig cfg;
    cfg.sampling.interval = 100;
    cfg.sampling.window = 10;
    cfg.sampling.warmup = 100;
    EXPECT_TRUE(
        hasRule(checkCoreConfig(cfg), "sampling-warmup-ge-interval"));
}

TEST(ConfigCheck, RejectsSamplingWithNoFastForwardPhase)
{
    CoreConfig cfg;
    cfg.sampling.interval = 100;
    cfg.sampling.window = 60;
    cfg.sampling.warmup = 50;
    const auto findings = checkCoreConfig(cfg);
    EXPECT_TRUE(hasRule(findings, "sampling-no-fast-forward"));
    EXPECT_FALSE(hasRule(findings, "sampling-warmup-ge-interval"));
}

TEST(ConfigCheck, NoFastForwardRuleSeesThroughWrap)
{
    // warmup + window wraps to 99, below the interval.
    CoreConfig cfg;
    cfg.sampling.interval = 1000;
    cfg.sampling.window = std::numeric_limits<std::uint64_t>::max();
    cfg.sampling.warmup = 100;
    EXPECT_TRUE(
        hasRule(checkCoreConfig(cfg), "sampling-no-fast-forward"));
}

TEST(ConfigCheck, WarnsWhenBudgetBelowOneInterval)
{
    CoreConfig cfg;
    cfg.sampling.interval = 1000;
    cfg.sampling.window = 100;
    cfg.sampling.warmup = 10;
    cfg.maxCommitted = 500;
    const auto findings = checkCoreConfig(cfg);
    const ConfigFinding *f =
        findRule(findings, "sampling-budget-lt-interval");
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->error); // a warning, not a blocker
    // The config is otherwise clean, so it must still be feasible.
    requireFeasibleConfig(cfg, "budget-warning");
}

TEST(ConfigCheck, StockLatencyTableHasNoZeroLatencyOps)
{
    // This rule exists to catch future edits to kOpTraits; it must
    // not fire on the shipped table.
    EXPECT_FALSE(
        hasRule(checkCoreConfig(CoreConfig{}), "zero-latency-op"));
}

TEST(ConfigCheck, RegFilePortArithmetic)
{
    EXPECT_TRUE(checkRegFilePorts(8, 4, 4, false).empty());
    EXPECT_TRUE(
        hasRule(checkRegFilePorts(6, 4, 4, false),
                "read-ports-lt-demand"));
    EXPECT_TRUE(
        hasRule(checkRegFilePorts(8, 3, 4, false),
                "write-ports-lt-demand"));
    EXPECT_TRUE(checkRegFilePorts(16, 8, 8, false).empty());
    // A port sharing/stall scheme models the contention instead.
    EXPECT_TRUE(checkRegFilePorts(2, 1, 8, true).empty());
}

TEST(ConfigCheck, RequireFeasibleListsEveryError)
{
    CoreConfig cfg;
    cfg.issueWidth = 5;
    cfg.numPhysRegs = 8;
    try {
        requireFeasibleConfig(cfg, "unit-test");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unit-test"), std::string::npos);
        EXPECT_NE(msg.find("issue-width"), std::string::npos);
        EXPECT_NE(msg.find("phys-regs-lt-virtual"), std::string::npos);
        EXPECT_NE(msg.find("2 errors"), std::string::npos);
    }
}

TEST(ConfigCheck, RequireFeasiblePassesSaneConfigs)
{
    requireFeasibleConfig(CoreConfig{}, "default");
    requireFeasibleConfig(exp::paperConfig(4, 128), "paper");
}

TEST(ConfigCheck, ExperimentExpansionScreensSamplingUpFront)
{
    const exp::ExperimentDef *def = exp::findExperiment("table1");
    ASSERT_NE(def, nullptr);

    exp::RunContext ctx;
    ctx.sampling.interval = 100; // zero window: infeasible
    EXPECT_THROW(exp::expandExperiment(*def, ctx), FatalError);

    ctx.sampling.window = 10;
    ctx.sampling.warmup = 10;
    EXPECT_FALSE(exp::expandExperiment(*def, ctx).empty());
}

} // namespace
} // namespace drsim
