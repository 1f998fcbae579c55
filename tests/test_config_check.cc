/**
 * @file
 * Unit tests for the CoreConfig rule table (src/core/config_check):
 * one test per rule id, CoreConfig::validate() against the table,
 * cache geometry, requireFeasibleConfig()'s collect-all behavior, and
 * the spec-parse-time wiring through exp::expandExperiment.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>

#include "common/logging.hh"
#include "core/config_check.hh"
#include "core/processor.hh"
#include "exp/registry.hh"
#include "workloads/builder.hh"

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

/** A config that breaks each error rule of the table. */
const std::map<std::string, std::function<void(CoreConfig &)>> &
errorCases()
{
    static const std::map<std::string,
                          std::function<void(CoreConfig &)>>
        cases = {
            {"issue-width", [](CoreConfig &c) { c.issueWidth = 6; }},
            {"window-lt-issue-width",
             [](CoreConfig &c) { c.dqSize = 2; }},
            {"split-queue-starved",
             [](CoreConfig &c) {
                 c.splitDispatchQueues = true;
                 c.dqSize = 5;
             }},
            // The derived getters floor every class at one, so no
            // supported width reaches this rule (see
            // NarrowWidthKeepsPerClassIssueLimitsAlive).
            {"issue-class-starved", nullptr},
            {"unknown-predictor",
             [](CoreConfig &c) { c.predictor = "perceptron"; }},
            {"negative-result-buses",
             [](CoreConfig &c) { c.resultBuses = -1; }},
            {"phys-regs-lt-virtual",
             [](CoreConfig &c) { c.numPhysRegs = 31; }},
            {"sampling-zero-window",
             [](CoreConfig &c) {
                 c.sampling.interval = 1000;
                 c.sampling.warmup = 100;
             }},
            {"sampling-warmup-ge-interval",
             [](CoreConfig &c) {
                 c.sampling.interval = 1000;
                 c.sampling.window = 10;
                 c.sampling.warmup = 1000;
             }},
            {"sampling-no-fast-forward",
             [](CoreConfig &c) {
                 c.sampling.interval = 1000;
                 c.sampling.window = 600;
                 c.sampling.warmup = 500;
             }},
            {"dcache-geometry",
             [](CoreConfig &c) { c.dcache.lineBytes = 48; }},
            {"icache-geometry",
             [](CoreConfig &c) { c.icache.assoc = 0; }},
        };
    return cases;
}

/** validate() throws exactly when checkCoreConfig() reports an
 *  error, and its message names exactly the error rule ids. */
void
expectValidateAgreesWithTable(const CoreConfig &cfg)
{
    const std::vector<ConfigFinding> findings = checkCoreConfig(cfg);
    bool infeasible = false;
    for (const ConfigFinding &f : findings)
        infeasible = infeasible || f.error;
    if (!infeasible) {
        EXPECT_NO_THROW(cfg.validate());
        return;
    }
    try {
        cfg.validate();
        ADD_FAILURE() << "validate() accepted an infeasible config";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        for (const ConfigFinding &f : findings) {
            const std::string tag = std::string("[") + f.rule + "]";
            EXPECT_EQ(msg.find(tag) != std::string::npos, f.error)
                << tag << " in: " << msg;
        }
    }
}

TEST(ConfigCheck, ValidateRejectsExactlyTheTableErrors)
{
    for (const ConfigRule &rule : configRules()) {
        if (!rule.error)
            continue;
        const auto it = errorCases().find(rule.id);
        ASSERT_NE(it, errorCases().end())
            << "no test case for error rule " << rule.id;
        if (!it->second)
            continue;
        CoreConfig cfg;
        it->second(cfg);
        EXPECT_TRUE(hasRule(checkCoreConfig(cfg), rule.id)) << rule.id;
        expectValidateAgreesWithTable(cfg);
    }

    // Every case at once: one FatalError lists them all.
    CoreConfig all;
    for (const auto &[id, breaks] : errorCases()) {
        if (breaks)
            breaks(all);
    }
    expectValidateAgreesWithTable(all);

    // Clean and warning-only configs pass.
    expectValidateAgreesWithTable(CoreConfig{});
    CoreConfig warned;
    warned.issueWidth = 8;
    warned.dqSize = 64;
    warned.resultBuses = 1;
    ASSERT_TRUE(
        hasRule(checkCoreConfig(warned), "result-buses-lt-half-width"));
    expectValidateAgreesWithTable(warned);
}

TEST(ConfigCheck, ValidateAndRequireFeasibleShareOneFormat)
{
    CoreConfig cfg;
    cfg.issueWidth = 5;
    cfg.numPhysRegs = 8;
    const std::string errors =
        " (2 errors):"
        "\n  [issue-width] issue width must be 2, 4 or 8 (got 5)"
        "\n  [phys-regs-lt-virtual] 8 physical registers cannot map "
        "32 architectural ones: rename deadlocks (paper Section 3.1)";
    try {
        cfg.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "infeasible configuration" + errors);
    }
    try {
        requireFeasibleConfig(cfg, "unit-test");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "infeasible configuration for 'unit-test'" + errors);
    }
}

Program
haltProgram()
{
    ProgramBuilder b("p");
    b.halt();
    return b.build();
}

TEST(ConfigCheck, WarningOnlyConfigBuildsAProcessorSilently)
{
    CoreConfig cfg;
    cfg.issueWidth = 8;
    cfg.dqSize = 64;
    cfg.resultBuses = 1;
    const Program prog = haltProgram();
    testing::internal::CaptureStderr();
    EXPECT_NO_THROW(Processor(cfg, prog));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(ConfigCheck, ProcessorRejectsWindowSmallerThanIssueGroup)
{
    // Every entry point's screen rejects this machine, and so must a
    // Processor built directly.
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 2;
    EXPECT_THROW(Processor(cfg, haltProgram()), FatalError);
}

TEST(ConfigCheck, CacheGeometryIsATableRule)
{
    const auto expectRejected = [](const char *what, auto &&edit) {
        CoreConfig cfg;
        edit(cfg.dcache);
        edit(cfg.icache);
        const auto findings = checkCoreConfig(cfg);
        EXPECT_TRUE(hasRule(findings, "dcache-geometry")) << what;
        EXPECT_TRUE(hasRule(findings, "icache-geometry")) << what;
        EXPECT_THROW(cfg.validate(), FatalError) << what;
        EXPECT_NE(cfg.dcache.geometryError(), nullptr) << what;
        EXPECT_THROW(cfg.dcache.validate(), FatalError) << what;
    };
    expectRejected("line 48", [](CacheConfig &c) { c.lineBytes = 48; });
    expectRejected("assoc 0", [](CacheConfig &c) { c.assoc = 0; });
    expectRejected("3 sets", [](CacheConfig &c) {
        c.sizeBytes = 3 * c.assoc * c.lineBytes;
    });
    expectRejected("no sets", [](CacheConfig &c) { c.sizeBytes = 0; });
    // lineBytes * assoc is 2^32: a 32-bit product would wrap to 0 and
    // divide by zero.
    expectRejected("set bytes past 32 bits", [](CacheConfig &c) {
        c.lineBytes = 1u << 16;
        c.assoc = 1u << 16;
    });

    CoreConfig cfg;
    cfg.dcache.sizeBytes = 8 * 1024;
    cfg.dcache.assoc = 4;
    cfg.icache.lineBytes = 64;
    EXPECT_TRUE(checkCoreConfig(cfg).empty());
    EXPECT_EQ(cfg.dcache.geometryError(), nullptr);
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
