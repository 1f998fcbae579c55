/**
 * @file
 * Tests for the parallel experiment runner (sim/runner.hh) and the
 * thread pool underneath it (common/thread_pool.hh).
 *
 * The load-bearing property is *bit-identical determinism*: a suite
 * run fanned out over N workers must reproduce the serial path's
 * SimResults exactly — cycles, instruction counts, every histogram
 * bucket — and therefore identical SuiteResult aggregates and JSON.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/runner.hh"
#include "workloads/builder.hh"

namespace drsim {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, WaitOnEmptyBatchReturnsImmediately)
{
    ThreadPool pool(4);
    pool.wait(); // nothing submitted; must not block
    pool.wait(); // and must stay reusable
    EXPECT_EQ(pool.numThreads(), 4);
}

TEST(ThreadPool, ClampsNonPositiveThreadCounts)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1);
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, MoreWorkersThanTasks)
{
    ThreadPool pool(8);
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i)
        pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, RunsManyTasksAcrossBatches)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ++sum; });
        pool.wait();
        EXPECT_EQ(sum.load(), 50 * (batch + 1));
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable)
{
    ThreadPool pool(4);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error must be cleared: the next healthy batch succeeds.
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, FirstExceptionWinsOthersDropped)
{
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.wait(); // cleared; no tasks pending
}

TEST(ThreadPool, HardwareJobsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1);
}

// ------------------------------------------------------ job resolution

class JobsEnvGuard
{
  public:
    explicit JobsEnvGuard(const char *value)
    {
        const char *old = std::getenv("DRSIM_JOBS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value != nullptr)
            setenv("DRSIM_JOBS", value, 1);
        else
            unsetenv("DRSIM_JOBS");
    }
    ~JobsEnvGuard()
    {
        if (had_)
            setenv("DRSIM_JOBS", old_.c_str(), 1);
        else
            unsetenv("DRSIM_JOBS");
    }

  private:
    bool had_;
    std::string old_;
};

TEST(ResolveJobs, ExplicitRequestWins)
{
    JobsEnvGuard guard("7");
    EXPECT_EQ(resolveJobs(3), 3);
}

TEST(ResolveJobs, EnvVariableUsedWhenUnspecified)
{
    JobsEnvGuard guard("7");
    EXPECT_EQ(resolveJobs(0), 7);
    EXPECT_EQ(resolveJobs(-1), 7);
}

TEST(ResolveJobs, FallsBackToHardwareOnUnsetOrInvalid)
{
    {
        JobsEnvGuard guard(nullptr);
        EXPECT_EQ(resolveJobs(0), ThreadPool::hardwareJobs());
    }
    {
        JobsEnvGuard guard("zero");
        EXPECT_EQ(resolveJobs(0), ThreadPool::hardwareJobs());
    }
    {
        JobsEnvGuard guard("-3");
        EXPECT_EQ(resolveJobs(0), ThreadPool::hardwareJobs());
    }
    {
        JobsEnvGuard guard("7seven");
        EXPECT_EQ(resolveJobs(0), ThreadPool::hardwareJobs());
    }
}

TEST(ResolveJobs, ZeroMeansExplicitAutoDetect)
{
    JobsEnvGuard guard("0");
    EXPECT_EQ(resolveJobs(0), ThreadPool::hardwareJobs());
}

TEST(ResolveJobs, ClampsOutOfRangeValues)
{
    {
        JobsEnvGuard guard("2000"); // over kMaxJobs but fits an int
        EXPECT_EQ(resolveJobs(0), kMaxJobs);
    }
    {
        // Would overflow int (and long long, saturating via ERANGE);
        // previously this silently truncated through int().
        JobsEnvGuard guard("99999999999999999999999");
        EXPECT_EQ(resolveJobs(0), kMaxJobs);
    }
    {
        JobsEnvGuard guard("1024"); // exactly kMaxJobs is accepted
        EXPECT_EQ(resolveJobs(0), 1024);
    }
}

// -------------------------------------------------------- determinism

CoreConfig
smallConfig()
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 64;
    cfg.maxCommitted = 4000;
    return cfg;
}

void
expectHistogramsEqual(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.totalSamples(), b.totalSamples());
    EXPECT_EQ(a.counts(), b.counts());
}

/** Field-by-field, bucket-by-bucket equality of two runs. */
void
expectRunsIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.fpIntensive, b.fpIntensive);
    EXPECT_EQ(int(a.stopReason), int(b.stopReason));
    EXPECT_EQ(a.proc.cycles, b.proc.cycles);
    EXPECT_EQ(a.proc.committed, b.proc.committed);
    EXPECT_EQ(a.proc.executed, b.proc.executed);
    EXPECT_EQ(a.proc.executedLoads, b.proc.executedLoads);
    EXPECT_EQ(a.proc.executedStores, b.proc.executedStores);
    EXPECT_EQ(a.proc.executedCondBranches,
              b.proc.executedCondBranches);
    EXPECT_EQ(a.proc.mispredictedBranches,
              b.proc.mispredictedBranches);
    EXPECT_EQ(a.proc.noFreeRegCycles, b.proc.noFreeRegCycles);
    EXPECT_EQ(a.icacheAccesses, b.icacheAccesses);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_DOUBLE_EQ(a.loadMissRate, b.loadMissRate);
    for (int c = 0; c < kNumRegClasses; ++c) {
        for (int l = 0; l < 4; ++l)
            expectHistogramsEqual(a.proc.live[c][l],
                                  b.proc.live[c][l]);
        expectHistogramsEqual(a.lifetime[c], b.lifetime[c]);
    }
}

TEST(Runner, ParallelSuiteBitIdenticalToSerial)
{
    const auto suite = buildSpec92Suite(1);
    const CoreConfig cfg = smallConfig();

    const SuiteResult serial = runSuite(cfg, suite);
    const auto batch = runExperiments({{"one", cfg}}, suite, 4);
    ASSERT_EQ(batch.size(), 1u);
    const SuiteResult &parallel = batch[0].suite;

    ASSERT_EQ(serial.runs().size(), parallel.runs().size());
    for (std::size_t i = 0; i < serial.runs().size(); ++i)
        expectRunsIdentical(serial.runs()[i], parallel.runs()[i]);

    // Aggregates and the paper's percentile metric follow exactly.
    EXPECT_DOUBLE_EQ(serial.avgIssueIpc(), parallel.avgIssueIpc());
    EXPECT_DOUBLE_EQ(serial.avgCommitIpc(), parallel.avgCommitIpc());
    EXPECT_DOUBLE_EQ(serial.avgNoFreeRegPct(),
                     parallel.avgNoFreeRegPct());
    for (const auto cls : {RegClass::Int, RegClass::Fp})
        for (int l = 0; l < 4; ++l)
            EXPECT_EQ(
                serial.livePercentile(cls, LiveLevel(l), 0.90),
                parallel.livePercentile(cls, LiveLevel(l), 0.90));
}

TEST(Runner, SingleJobTakesSerialPath)
{
    const auto suite = buildSpec92Suite(1);
    const CoreConfig cfg = smallConfig();
    const SuiteResult serial = runSuite(cfg, suite);
    const auto batch = runExperiments({{"one", cfg}}, suite, 1);
    ASSERT_EQ(batch.size(), 1u);
    const SuiteResult &one_job = batch[0].suite;
    ASSERT_EQ(serial.runs().size(), one_job.runs().size());
    for (std::size_t i = 0; i < serial.runs().size(); ++i)
        expectRunsIdentical(serial.runs()[i], one_job.runs()[i]);
}

TEST(Runner, ExperimentsMatchSerialLoopAndKeepSpecOrder)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    for (const int regs : {48, 64, 96}) {
        CoreConfig cfg = smallConfig();
        cfg.numPhysRegs = regs;
        specs.push_back({"r" + std::to_string(regs), cfg});
    }

    const auto batch = runExperiments(specs, suite, 4);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        EXPECT_EQ(batch[s].spec.name, specs[s].name);
        const SuiteResult serial = runSuite(specs[s].config, suite);
        ASSERT_EQ(batch[s].suite.runs().size(),
                  serial.runs().size());
        for (std::size_t i = 0; i < serial.runs().size(); ++i)
            expectRunsIdentical(serial.runs()[i],
                                batch[s].suite.runs()[i]);
    }
}

TEST(Runner, InvalidConfigErrorPropagatesFromWorkers)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    CoreConfig bad = smallConfig();
    bad.issueWidth = 6; // validate() rejects anything but 2 / 4 / 8
    specs.push_back({"bad", bad});
    EXPECT_THROW(runExperiments(specs, suite, 4), FatalError);
}

TEST(Runner, EmptySpecBatchIsRejected)
{
    const auto suite = buildSpec92Suite(1);
    EXPECT_THROW(runExperiments({}, suite, 2), FatalError);
}

// --------------------------------------------------------- JSON export

TEST(Runner, ResultsJsonIndependentOfJobCount)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    specs.push_back({"base", smallConfig()});
    RunInfo info;
    info.runId = "test";
    info.scale = 1;
    info.maxCommitted = smallConfig().maxCommitted;

    const std::string serial =
        resultsJson(info, runExperiments(specs, suite, 1));
    const std::string parallel =
        resultsJson(info, runExperiments(specs, suite, 4));
    EXPECT_EQ(serial, parallel); // byte-identical artifact
}

TEST(Runner, ResultsJsonCarriesSchemaFields)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    specs.push_back({"base", smallConfig()});
    RunInfo info;
    info.runId = "schema-check";
    info.scale = 1;

    const std::string json =
        resultsJson(info, runExperiments(specs, suite, 2));
    for (const char *needle :
         {"\"schema_version\": 2", "\"run_id\": \"schema-check\"",
          "\"suite\"", "\"experiments\"", "\"config\"",
          "\"issue_width\"", "\"exception_model\"", "\"cache_kind\"",
          "\"workloads\"", "\"commit_ipc\"", "\"summary\"",
          "\"avg_commit_ipc\"", "\"avg_stall_pct\"", "\"live_p90\"",
          "\"busy_cycles\"", "\"issue_width_bound_cycles\"",
          "\"stall_cycles\"", "\"operand_wait\"", "\"occupancy\"",
          "\"dispatch_queue\"", "\"store_queue\"", "\"compress\""})
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
}

/**
 * The exporter's output must survive the strict in-repo parser, and
 * the parsed document must uphold the attribution invariant: for every
 * workload, busy + issue_width_bound + sum(stall_cycles.*) == cycles.
 */
TEST(Runner, ResultsJsonRoundTripsThroughStrictParser)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    specs.push_back({"base", smallConfig()});
    CoreConfig tight = smallConfig();
    tight.numPhysRegs = 40;
    specs.push_back({"tight", tight});
    RunInfo info;
    info.runId = "roundtrip";
    info.scale = 1;

    const json::Value doc = json::parse(
        resultsJson(info, runExperiments(specs, suite, 2)));
    EXPECT_EQ(doc.at("schema_version").asU64(), 2u);
    EXPECT_EQ(doc.at("run_id").asString(), "roundtrip");

    const auto &experiments = doc.at("experiments").items();
    ASSERT_EQ(experiments.size(), specs.size());
    for (const auto &exp : experiments) {
        for (const auto &wl : exp.at("workloads").items()) {
            const std::uint64_t cycles = wl.at("cycles").asU64();
            std::uint64_t attributed =
                wl.at("busy_cycles").asU64() +
                wl.at("issue_width_bound_cycles").asU64();
            for (const auto &[name, v] :
                 wl.at("stall_cycles").members())
                attributed += v.asU64();
            EXPECT_EQ(attributed, cycles)
                << exp.at("name").asString() << "/"
                << wl.at("name").asString();

            // A run that executed loads/branches reports numbers.
            if (wl.at("executed_loads").asU64() > 0) {
                EXPECT_TRUE(wl.at("load_miss_rate").isNumber());
            }
            if (wl.at("executed_cond_branches").asU64() > 0) {
                EXPECT_TRUE(wl.at("mispredict_rate").isNumber());
            }

            // Occupancy summaries ride along by default.
            const json::Value &occ = wl.at("occupancy");
            for (const char *s :
                 {"dispatch_queue", "window", "store_queue"}) {
                EXPECT_GE(occ.at(s).at("max").asNumber(),
                          occ.at(s).at("p90").asNumber());
            }
        }
    }
}

/**
 * The result_bus stall bucket is additive: a run with unlimited
 * writeback buses (the default) must emit byte-identical JSON to the
 * pre-bucket exporter — no "result_bus" key, no "result_buses" config
 * key, no "predictor" config key — while a bus-constrained run carries
 * all of them and still satisfies the attribution invariant.
 */
TEST(Runner, ResultBusBucketEmittedOnlyWhenConstrained)
{
    const auto suite = buildSpec92Suite(1);
    RunInfo info;
    info.runId = "bus-check";
    info.scale = 1;

    // Default config: unlimited buses, mcfarling predictor.  The new
    // knobs must leave the artifact untouched (the byte-identity
    // guard behind the fig7/table1 golden hashes).
    std::vector<ExperimentSpec> plain;
    plain.push_back({"base", smallConfig()});
    const std::string base_json =
        resultsJson(info, runExperiments(plain, suite, 2));
    EXPECT_EQ(base_json.find("\"result_bus\""), std::string::npos);
    EXPECT_EQ(base_json.find("\"result_buses\""), std::string::npos);
    EXPECT_EQ(base_json.find("\"predictor\""), std::string::npos);

    // One writeback bus on a 4-wide machine: contention is certain,
    // so the bucket must appear, the config must record the knob, and
    // every workload must still attribute each cycle exactly once.
    CoreConfig starved = smallConfig();
    starved.resultBuses = 1;
    std::vector<ExperimentSpec> specs;
    specs.push_back({"bus1", starved});
    const std::string text =
        resultsJson(info, runExperiments(specs, suite, 2));
    EXPECT_NE(text.find("\"result_buses\": 1"), std::string::npos);

    const json::Value doc = json::parse(text);
    const json::Value &exp = doc.at("experiments").at(std::size_t(0));
    std::uint64_t bus_stalls = 0;
    for (const auto &wl : exp.at("workloads").items()) {
        const std::uint64_t cycles = wl.at("cycles").asU64();
        std::uint64_t attributed =
            wl.at("busy_cycles").asU64() +
            wl.at("issue_width_bound_cycles").asU64();
        for (const auto &[name, v] : wl.at("stall_cycles").members()) {
            attributed += v.asU64();
            if (name == "result_bus")
                bus_stalls += v.asU64();
        }
        EXPECT_EQ(attributed, cycles) << wl.at("name").asString();
    }
    EXPECT_GT(bus_stalls, 0u);
}

/** A non-default predictor spec rides along in the config block. */
TEST(Runner, NonDefaultPredictorRecordedInConfig)
{
    const auto suite = buildSpec92Suite(1);
    CoreConfig cfg = smallConfig();
    cfg.predictor = "gshare";
    std::vector<ExperimentSpec> specs;
    specs.push_back({"gshare", cfg});
    RunInfo info;
    info.runId = "pred-check";
    info.scale = 1;

    const json::Value doc = json::parse(
        resultsJson(info, runExperiments(specs, suite, 1)));
    const json::Value &conf =
        doc.at("experiments").at(std::size_t(0)).at("config");
    EXPECT_EQ(conf.at("predictor").asString(), "gshare");
    EXPECT_EQ(conf.find("result_buses"), nullptr); // still default
}

/**
 * Zero-denominator ratios must be null, not 0: a workload with no
 * loads and no conditional branches has no miss or mispredict rate.
 */
TEST(Runner, ZeroDenominatorRatiosEmitNull)
{
    ProgramBuilder b("noload");
    const RegId r1 = intReg(1);
    b.li(r1, 5);
    b.addi(r1, r1, 1);
    b.halt();
    static const WorkloadSpec spec{"noload", "", false, nullptr};
    std::vector<Workload> suite;
    suite.push_back({&spec, b.build()});

    std::vector<ExperimentSpec> specs;
    specs.push_back({"base", smallConfig()});
    RunInfo info;
    info.runId = "null-check";
    info.scale = 1;

    const json::Value doc = json::parse(
        resultsJson(info, runExperiments(specs, suite, 1)));
    const json::Value &wl =
        doc.at("experiments").at(std::size_t(0)).at("workloads")
            .at(std::size_t(0));
    EXPECT_EQ(wl.at("executed_loads").asU64(), 0u);
    EXPECT_EQ(wl.at("executed_cond_branches").asU64(), 0u);
    EXPECT_TRUE(wl.at("load_miss_rate").isNull());
    EXPECT_TRUE(wl.at("mispredict_rate").isNull());
    // The run did cycle, so the IPC ratios are real numbers.
    EXPECT_TRUE(wl.at("issue_ipc").isNumber());
    EXPECT_TRUE(wl.at("commit_ipc").isNumber());
}

/** Hostile characters in run_id must round-trip through escaping. */
TEST(Runner, RunIdWithSpecialCharactersRoundTrips)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    specs.push_back({"base", smallConfig()});
    RunInfo info;
    info.runId = "quote\"back\\slash\nnewline\ttab\x01ctl";
    info.scale = 1;

    const json::Value doc = json::parse(
        resultsJson(info, runExperiments(specs, suite, 1)));
    EXPECT_EQ(doc.at("run_id").asString(), info.runId);
}

TEST(Runner, WriteResultsFileRoundTripsAndRejectsBadPath)
{
    const auto suite = buildSpec92Suite(1);
    std::vector<ExperimentSpec> specs;
    specs.push_back({"base", smallConfig()});
    const auto results = runExperiments(specs, suite, 2);
    RunInfo info;
    info.runId = "roundtrip";
    info.scale = 1;

    const std::string path =
        testing::TempDir() + "drsim_runner_roundtrip.json";
    writeResultsFile(path, info, results);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        contents.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(contents, resultsJson(info, results));

    EXPECT_THROW(writeResultsFile("/nonexistent-dir/x.json", info,
                                  results),
                 FatalError);
}

} // namespace
} // namespace drsim
