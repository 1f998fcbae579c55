/**
 * @file
 * Tests of the experiment-registry layer (src/exp): grid expansion
 * must reproduce the exact spec vectors the legacy bench/ harness
 * mains built by hand (counts, names, configurations, and ordering),
 * the hardened environment parsing must reject what the old strtoull
 * path silently accepted, sweep-spec files must round-trip, and the
 * registry-driven results JSON for the exporting experiments must be
 * byte-identical to the legacy construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "exp/registry.hh"
#include "exp/spec_file.hh"
#include "workloads/kernels.hh"

using namespace drsim;
using namespace drsim::exp;

namespace {

/** The legacy bench mains' point name "w<width>-<model>-r<regs>".
 *  Built by appending: GCC 12 at -O3 flags `"w" + std::to_string(n)`
 *  with a false -Wrestrict positive. */
std::string
legacyName(int width, ExceptionModel model, int regs)
{
    std::string name = "w";
    name += std::to_string(width);
    name += "-";
    name += exceptionModelName(model);
    name += "-r";
    name += std::to_string(regs);
    return name;
}

/** Scoped environment-variable override (nullptr = unset). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_;
    std::string old_;
};

std::vector<ExperimentSpec>
expand(const char *name)
{
    const ExperimentDef *def = findExperiment(name);
    EXPECT_NE(def, nullptr) << name;
    return expandExperiment(*def, RunContext{});
}

// ------------------------------------------------------------ registry

TEST(ExpRegistry, EveryLegacyHarnessIsRegistered)
{
    const char *expected[] = {
        "table1",      "fig3",          "fig4",
        "fig5",        "fig6",          "fig7",
        "fig8",        "fig10",         "ablations",
        "ext_classic", "ext_mshr",      "ext_writebuffer",
        "ext_variance", "ext_bounds",   "ext_predictors",
        "ext_critical_paths",
        "simspeed",    "sampling_validate", "micro",
    };
    for (const char *name : expected)
        EXPECT_NE(findExperiment(name), nullptr) << name;
    EXPECT_EQ(experimentRegistry().size(), std::size(expected));
}

TEST(ExpRegistry, NamesAreUnique)
{
    std::vector<std::string> names;
    for (const ExperimentDef &def : experimentRegistry())
        names.push_back(def.name);
    auto sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ExpRegistry, UnknownNameIsNull)
{
    EXPECT_EQ(findExperiment("no_such_experiment"), nullptr);
}

TEST(ExpRegistry, CustomExperimentsHaveNoGrid)
{
    for (const char *name :
         {"ext_critical_paths", "simspeed", "micro"}) {
        const ExperimentDef *def = findExperiment(name);
        ASSERT_NE(def, nullptr);
        EXPECT_NE(def->run, nullptr) << name;
        EXPECT_THROW(expandExperiment(*def, RunContext{}), FatalError)
            << name;
    }
}

// ------------------------------------------------- cross-product counts

TEST(ExpGrid, CrossProductCountsMatchLegacyHarnesses)
{
    const struct { const char *name; std::size_t count; } expected[] = {
        {"table1", 2},        {"fig3", 12},
        {"fig4", 4},          {"fig5", 2},
        {"fig6", 32},         {"fig7", 96},
        {"fig8", 3},          {"fig10", 32},
        {"ablations", 7},     {"ext_classic", 9},
        {"ext_mshr", 14},     {"ext_writebuffer", 12},
        {"ext_variance", 1},  {"ext_bounds", 8},
        {"ext_predictors", 64},
    };
    for (const auto &[name, count] : expected)
        EXPECT_EQ(expand(name).size(), count) << name;
}

// --------------------------------------- names and deterministic order

TEST(ExpGrid, Table1NamesMatchLegacy)
{
    const auto specs = expand("table1");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "w4-r2048");
    EXPECT_EQ(specs[1].name, "w8-r2048");
    EXPECT_EQ(specs[0].config.issueWidth, 4);
    EXPECT_EQ(specs[0].config.dqSize, 32);
    EXPECT_EQ(specs[1].config.issueWidth, 8);
    EXPECT_EQ(specs[1].config.dqSize, 64);
    EXPECT_EQ(specs[0].config.numPhysRegs, 2048);
}

TEST(ExpGrid, Fig6SpecsMatchLegacyLoopExactly)
{
    // The loop from the legacy bench/fig6.cc main (names via
    // legacyName()).
    std::vector<ExperimentSpec> legacy;
    for (const int width : {4, 8}) {
        for (const int regs : {32, 48, 64, 80, 96, 128, 160, 256}) {
            for (const auto model : {ExceptionModel::Precise,
                                     ExceptionModel::Imprecise}) {
                CoreConfig cfg = paperConfig(width, regs, model);
                legacy.push_back({legacyName(width, model, regs), cfg});
            }
        }
    }
    const auto specs = expand("fig6");
    ASSERT_EQ(specs.size(), legacy.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].name, legacy[i].name) << i;
        EXPECT_TRUE(specs[i].config == legacy[i].config) << i;
    }
}

TEST(ExpGrid, Fig7SpecsMatchLegacyLoopExactly)
{
    // The loop from the legacy bench/fig7.cc main (names via
    // legacyName()): note the nesting (model outermost) differs from
    // the name order (width first) — the expansion must reproduce
    // both.
    const CacheKind kinds[3] = {CacheKind::Perfect,
                                CacheKind::LockupFree,
                                CacheKind::Lockup};
    std::vector<ExperimentSpec> legacy;
    for (const auto model :
         {ExceptionModel::Imprecise, ExceptionModel::Precise}) {
        for (const int width : {4, 8}) {
            for (const int regs :
                 {32, 48, 64, 80, 96, 128, 160, 256}) {
                for (const CacheKind kind : kinds) {
                    legacy.push_back(
                        {legacyName(width, model, regs) + "-" +
                             cacheKindName(kind),
                         paperConfig(width, regs, model, kind)});
                }
            }
        }
    }
    const auto specs = expand("fig7");
    ASSERT_EQ(specs.size(), legacy.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].name, legacy[i].name) << i;
        EXPECT_TRUE(specs[i].config == legacy[i].config) << i;
    }
}

TEST(ExpGrid, AblationsNamesMatchLegacy)
{
    const auto specs = expand("ablations");
    ASSERT_EQ(specs.size(), 7u);
    EXPECT_EQ(specs[0].name, "baseline (paper model)");
    EXPECT_EQ(specs[1].name, "in-order branches");
    EXPECT_EQ(specs[2].name, "execute-time bpred history");
    EXPECT_EQ(specs[3].name, "no store->load forwarding");
    EXPECT_EQ(specs[4].name, "split dispatch queues");
    EXPECT_EQ(specs[5].name, "lifetime-precise-r80");
    EXPECT_EQ(specs[6].name, "lifetime-imprecise-r80");
    EXPECT_TRUE(specs[1].config.inOrderBranches);
    EXPECT_FALSE(specs[2].config.speculativeHistoryUpdate);
    EXPECT_FALSE(specs[3].config.storeToLoadForwarding);
    EXPECT_TRUE(specs[4].config.splitDispatchQueues);
    EXPECT_EQ(specs[5].config.numPhysRegs, 80);
    EXPECT_EQ(specs[6].config.exceptionModel,
              ExceptionModel::Imprecise);
}

TEST(ExpGrid, Fig8NamesCarryThePrefix)
{
    const auto specs = expand("fig8");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].name, "compress-perfect");
    EXPECT_EQ(specs[1].name, "compress-lockup-free");
    EXPECT_EQ(specs[2].name, "compress-lockup");
}

TEST(ExpGrid, ExpansionIsDeterministic)
{
    for (const char *name : {"fig6", "fig7", "ext_mshr"}) {
        const auto a = expand(name);
        const auto b = expand(name);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].name, b[i].name);
            EXPECT_TRUE(a[i].config == b[i].config);
        }
    }
}

TEST(ExpGrid, ContextCapIsAppliedToEverySpec)
{
    const ExperimentDef *def = findExperiment("fig6");
    ASSERT_NE(def, nullptr);
    RunContext ctx;
    ctx.maxCommitted = 12345;
    for (const ExperimentSpec &spec : expandExperiment(*def, ctx))
        EXPECT_EQ(spec.config.maxCommitted, 12345u);
}

// -------------------------------------------------------- env hardening

TEST(ExpEnv, ParseRejectsWhatStrtoullAccepted)
{
    const char *var = "DRSIM_TEST_ENV";
    std::uint64_t out = 99;

    // The old strtoull path silently accepted every one of these.
    for (const char *bad :
         {"7seven", "", " 7", "-3", "+3", "0x10", "7 "}) {
        EnvGuard guard(var, bad);
        EXPECT_EQ(envParseU64(var, out), EnvStatus::Malformed) << bad;
        EXPECT_EQ(out, 99u) << bad; // untouched on failure
    }
    {
        EnvGuard guard(var, nullptr);
        EXPECT_EQ(envParseU64(var, out), EnvStatus::Unset);
        EXPECT_EQ(out, 99u);
    }
    {
        EnvGuard guard(var, "0");
        EXPECT_EQ(envParseU64(var, out), EnvStatus::Ok);
        EXPECT_EQ(out, 0u);
    }
    {
        EnvGuard guard(var, "123456789");
        EXPECT_EQ(envParseU64(var, out), EnvStatus::Ok);
        EXPECT_EQ(out, 123456789u);
    }
    {
        // Overflow saturates rather than wrapping.
        EnvGuard guard(var, "99999999999999999999999");
        EXPECT_EQ(envParseU64(var, out), EnvStatus::Ok);
        EXPECT_EQ(out, UINT64_MAX);
    }
}

TEST(ExpEnv, ParseDecimalTakesOnlyWholeInRangeIntegers)
{
    // Command-line integers (`drsim bench --scale/--jobs/...`): a token
    // that is not all digits, or is out of range, is refused.
    for (const char *bad : {"abc", "2x", "", " 2", "2 ", "-1", "+2",
                            "0x10", "1.5", "99999999999999999999999"})
        EXPECT_EQ(parseDecimal(bad, 0, UINT64_MAX), std::nullopt) << bad;
    EXPECT_EQ(parseDecimal("0", 1, 10), std::nullopt);
    EXPECT_EQ(parseDecimal("11", 1, 10), std::nullopt);
    EXPECT_EQ(parseDecimal("1", 1, 10), std::optional<std::uint64_t>(1));
    EXPECT_EQ(parseDecimal("10", 1, 10),
              std::optional<std::uint64_t>(10));
    EXPECT_EQ(parseDecimal("18446744073709551615", 0, UINT64_MAX),
              std::optional<std::uint64_t>(UINT64_MAX));
}

TEST(ExpEnv, U64FallsBackOnMalformedValues)
{
    {
        EnvGuard guard("DRSIM_TEST_ENV", "30x");
        EXPECT_EQ(envU64("DRSIM_TEST_ENV", 7), 7u);
    }
    {
        EnvGuard guard("DRSIM_TEST_ENV", "30");
        EXPECT_EQ(envU64("DRSIM_TEST_ENV", 7), 30u);
    }
    {
        EnvGuard guard("DRSIM_TEST_ENV", nullptr);
        EXPECT_EQ(envU64("DRSIM_TEST_ENV", 7), 7u);
    }
}

TEST(ExpEnv, IntClampsToRange)
{
    {
        EnvGuard guard("DRSIM_TEST_ENV", "100");
        EXPECT_EQ(envInt("DRSIM_TEST_ENV", 1, 0, 50), 50);
        EXPECT_EQ(envInt("DRSIM_TEST_ENV", 1, 0, 1000), 100);
    }
    {
        EnvGuard guard("DRSIM_TEST_ENV", "bogus");
        EXPECT_EQ(envInt("DRSIM_TEST_ENV", 1, 0, 50), 1);
    }
}

TEST(ExpEnv, RunContextFromEnvRaisesZeroScaleToOne)
{
    EnvGuard scale("DRSIM_SCALE", "0");
    EXPECT_EQ(RunContext::fromEnv().scale, 1);
}

TEST(ExpEnv, RunContextFromEnvIgnoresGarbageScale)
{
    EnvGuard scale("DRSIM_SCALE", "5x");
    EnvGuard cap("DRSIM_MAX_COMMITTED", "oops");
    EnvGuard dir("DRSIM_RESULTS_DIR", nullptr);
    const RunContext ctx = RunContext::fromEnv();
    EXPECT_EQ(ctx.scale, kDefaultSuiteScale);
    EXPECT_EQ(ctx.maxCommitted, 0u);
    EXPECT_EQ(ctx.resultsDir, ".");
}

// ---------------------------------------------------------- spec files

const char kSweepDoc[] = R"json({
  "name": "demo",
  "description": "two-axis demo",
  "suite": "spec92",
  "export": true,
  "axes": {
    "regs": [48, 96],
    "model": ["precise", "imprecise"]
  }
})json";

TEST(ExpSpecFile, ParsesAndExpands)
{
    const SweepSpec spec = parseSweepSpec(kSweepDoc);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.suite, "spec92");
    EXPECT_TRUE(spec.exportResults);
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[0].key, "regs");
    EXPECT_EQ(spec.axes[1].key, "model");

    const auto specs = expandGrid(toGrid(spec));
    ASSERT_EQ(specs.size(), 4u);
    // Nesting follows declaration order (regs outermost); the name
    // uses the canonical fragment order (model before regs).
    EXPECT_EQ(specs[0].name, "precise-r48");
    EXPECT_EQ(specs[1].name, "imprecise-r48");
    EXPECT_EQ(specs[2].name, "precise-r96");
    EXPECT_EQ(specs[3].name, "imprecise-r96");
    EXPECT_EQ(specs[0].config.numPhysRegs, 48);
    EXPECT_EQ(specs[3].config.exceptionModel,
              ExceptionModel::Imprecise);
}

TEST(ExpSpecFile, RoundTripsThroughItsJsonForm)
{
    const SweepSpec spec = parseSweepSpec(kSweepDoc);
    const SweepSpec again = parseSweepSpec(sweepSpecJson(spec));
    EXPECT_EQ(again.name, spec.name);
    EXPECT_EQ(again.description, spec.description);
    EXPECT_EQ(again.suite, spec.suite);
    EXPECT_EQ(again.exportResults, spec.exportResults);
    ASSERT_EQ(again.axes.size(), spec.axes.size());
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        EXPECT_EQ(again.axes[a].key, spec.axes[a].key);
        EXPECT_EQ(again.axes[a].nums, spec.axes[a].nums);
        EXPECT_EQ(again.axes[a].strs, spec.axes[a].strs);
    }
    // The serializer is canonical: serializing twice is a fixpoint.
    EXPECT_EQ(sweepSpecJson(again), sweepSpecJson(spec));
}

TEST(ExpSpecFile, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseSweepSpec("not json"), FatalError);
    EXPECT_THROW(parseSweepSpec(R"({"name": "x"})"), FatalError);
    EXPECT_THROW(
        parseSweepSpec(
            R"({"name": "x", "axes": {"bogus": [1]}})"),
        FatalError);
    EXPECT_THROW(
        parseSweepSpec(
            R"({"name": "x", "axes": {"regs": []}})"),
        FatalError);
    EXPECT_THROW(
        parseSweepSpec(
            R"({"name": "x", "suite": "spec95", "axes": {"regs": [8]}})"),
        FatalError);
    // Axis *values* are validated when the spec is lowered to a grid
    // (which every --spec path does before any simulation starts).
    EXPECT_THROW(
        toGrid(parseSweepSpec(
            R"({"name": "x", "axes": {"model": ["sloppy"]}})")),
        FatalError);
    EXPECT_THROW(
        toGrid(parseSweepSpec(
            R"({"name": "x", "axes": {"cache": ["direct-mapped"]}})")),
        FatalError);
}

TEST(ExpSpecFile, RejectsAxisValuesThatWouldNarrow)
{
    // Each axis that narrows a u64 to its CoreConfig field refuses a
    // value beyond the field's range instead of wrapping it: 2^32 + 96
    // must not become 96 registers.
    for (const char *axis :
         {"width", "dq", "regs", "result_buses", "mshrs",
          "write_buffer"}) {
        const std::string key = "\"" + std::string(axis) + "\"";
        EXPECT_THROW(toGrid(parseSweepSpec(
                         R"({"name": "x", "axes": {)" + key +
                         R"(: [4294967392]}})")),
                     FatalError)
            << axis;
    }
    // The int axes stop at INT_MAX, the u32 axes at UINT32_MAX.
    for (const char *axis : {"width", "dq", "regs", "result_buses"}) {
        const std::string key = "\"" + std::string(axis) + "\"";
        EXPECT_THROW(toGrid(parseSweepSpec(
                         R"({"name": "x", "axes": {)" + key +
                         R"(: [2147483648]}})")),
                     FatalError)
            << axis;
    }
    for (const char *axis : {"mshrs", "write_buffer"}) {
        const std::string key = "\"" + std::string(axis) + "\"";
        const GridDef grid = toGrid(parseSweepSpec(
            R"({"name": "x", "axes": {)" + key + R"(: [4294967295]}})"));
        EXPECT_EQ(grid.axes.size(), 1u) << axis;
    }
}

// --------------------------------------- results-JSON byte identity

/** Registry-driven results JSON for @p name at scale 1. */
std::string
registryJson(const char *name, int scale)
{
    const ExperimentDef *def = findExperiment(name);
    EXPECT_NE(def, nullptr);
    RunContext ctx;
    ctx.scale = scale;
    const auto results = runExperiments(expandExperiment(*def, ctx),
                                        buildSuite(*def, ctx));
    RunInfo info;
    info.runId = name;
    info.scale = ctx.scale;
    info.maxCommitted = ctx.maxCommitted;
    return resultsJson(info, results);
}

TEST(ExpByteIdentity, Table1MatchesLegacyConstruction)
{
    const int scale = 1;
    // The legacy bench/table1.cc main's spec construction, verbatim.
    const auto suite = buildSpec92Suite(scale);
    std::vector<ExperimentSpec> specs;
    for (const int width : {4, 8}) {
        CoreConfig cfg = paperConfig(width, 2048);
        specs.push_back({"w" + std::to_string(width) + "-r2048", cfg});
    }
    const auto results = runExperiments(specs, suite);
    RunInfo info;
    info.runId = "table1";
    info.scale = scale;
    info.maxCommitted = 0;
    EXPECT_EQ(registryJson("table1", scale),
              resultsJson(info, results));
}

TEST(ExpByteIdentity, Fig7MatchesLegacyConstruction)
{
    const int scale = 1;
    // The legacy bench/fig7.cc main's spec construction (names via
    // legacyName()).
    const auto suite = buildSpec92Suite(scale);
    const CacheKind kinds[3] = {CacheKind::Perfect,
                                CacheKind::LockupFree,
                                CacheKind::Lockup};
    std::vector<ExperimentSpec> specs;
    for (const auto model :
         {ExceptionModel::Imprecise, ExceptionModel::Precise}) {
        for (const int width : {4, 8}) {
            for (const int regs :
                 {32, 48, 64, 80, 96, 128, 160, 256}) {
                for (const CacheKind kind : kinds) {
                    specs.push_back(
                        {legacyName(width, model, regs) + "-" +
                             cacheKindName(kind),
                         paperConfig(width, regs, model, kind)});
                }
            }
        }
    }
    const auto results = runExperiments(specs, suite);
    RunInfo info;
    info.runId = "fig7";
    info.scale = scale;
    info.maxCommitted = 0;
    EXPECT_EQ(registryJson("fig7", scale),
              resultsJson(info, results));
}

} // namespace
