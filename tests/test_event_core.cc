/**
 * @file
 * Bit-equality of the event-driven wakeup scheduler against the
 * exhaustive per-cycle scan it replaced.
 *
 * The scan scheduler rescanned every dispatch-queue entry each cycle;
 * the event-driven core (per-physical-register wakeup lists and ready
 * queues) replaced it as a pure performance rework.  Until the scan
 * path was deleted these tests ran both schedulers and required every
 * counter, every stall-cause bucket and every histogram bin to match.
 * The scan's verdicts survive as the table below: for each case, the
 * FNV-1a digest of the point record (serve/result_io.hh, which carries
 * every counter and every histogram count vector) that both schedulers
 * produced.  The cases cover the full Table-1 suite under both
 * exception models plus a grid chosen to exercise the scheduler's
 * corner cases (split queues, in-order branches, blocking caches,
 * finite write buffers, register and queue starvation, instruction-
 * cache misses, every predictor backend, result-bus arbitration).
 *
 * A digest here changes only when simulated behaviour changes.  A
 * deliberate timing-model change must say so, and re-derive the table
 * from a build that still carries an independent reference.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "bpred/predictor.hh"
#include "core/processor.hh"
#include "serve/result_io.hh"
#include "sim/simulator.hh"
#include "workloads/digest.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

/** fnv1aHex(pointRecordJson(result)) of every case below, as the scan
 *  and event schedulers both produced it, keyed by (workload, case). */
const std::map<std::pair<std::string, std::string>, std::string>
    kScanReference = {
    {{"compress", "precise"}, "7397962c9d6b10f8"},
    {{"compress", "imprecise"}, "4d268a43c9f4653d"},
    {{"doduc", "precise"}, "ecabb83f613b6974"},
    {{"doduc", "imprecise"}, "6c0a1f430f477584"},
    {{"espresso", "precise"}, "5e055857ecdaf7a1"},
    {{"espresso", "imprecise"}, "6acfa1bc7f2f8ed3"},
    {{"gcc1", "precise"}, "a6127494bee95d71"},
    {{"gcc1", "imprecise"}, "a94a3443f23aa227"},
    {{"mdljdp2", "precise"}, "6dea39cd24bba971"},
    {{"mdljdp2", "imprecise"}, "acf2aceb7c24947e"},
    {{"mdljsp2", "precise"}, "c0c614ab2a113453"},
    {{"mdljsp2", "imprecise"}, "cc2dc709a3d196c0"},
    {{"ora", "precise"}, "bc3b0dc926fd78af"},
    {{"ora", "imprecise"}, "1f5aefcd952a46ac"},
    {{"su2cor", "precise"}, "c6cbaec8233b962a"},
    {{"su2cor", "imprecise"}, "5871f5d8bd34c470"},
    {{"tomcatv", "precise"}, "06d5c3a5a0cfc046"},
    {{"tomcatv", "imprecise"}, "0c66af02719a30fe"},
    {{"espresso", "split-queues"}, "c576d54225e7af2b"},
    {{"gcc1", "inorder-branches"}, "d030051f09e5f8c1"},
    {{"compress", "lockup-cache"}, "58e04dbb8c922268"},
    {{"su2cor", "mshr+write-buffer"}, "f1d274e4eb5a38ae"},
    {{"tomcatv", "starved"}, "acd9b3332bdf4ee7"},
    {{"tomcatv", "starved/imprecise"}, "dde7f09445230bf9"},
    {{"doduc", "8-wide/small-icache"}, "d81f9dfd178d6f80"},
    {{"doduc", "2-wide"}, "29e7aa3fb7edb53e"},
    {{"gcc1", "bpred/mcfarling"}, "a6127494bee95d71"},
    {{"gcc1", "bpred/bimodal"}, "cec64eef12972f0c"},
    {{"gcc1", "bpred/gshare"}, "5a10f4c73c7130a6"},
    {{"gcc1", "bpred/tage"}, "4cd167be0ec788a6"},
    {{"espresso", "buses=1"}, "b770d8753660b707"},
    {{"espresso", "buses=2"}, "8f22db7e8d8e6ab2"},
    {{"espresso", "buses=0"}, "5e055857ecdaf7a1"},
    {{"espresso", "bus1/starved/bimodal"}, "5e3588dbaed830ef"},
};

void
expectHistogramEq(const Histogram &a, const Histogram &b,
                  const std::string &label)
{
    EXPECT_EQ(a.totalSamples(), b.totalSamples()) << label;
    ASSERT_EQ(a.counts().size(), b.counts().size()) << label;
    for (std::size_t i = 0; i < a.counts().size(); ++i)
        EXPECT_EQ(a.counts()[i], b.counts()[i]) << label << "[" << i
                                                << "]";
}

void
expectProcStatsEq(const ProcStats &a, const ProcStats &b,
                  const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.committed, b.committed) << label;
    EXPECT_EQ(a.committedLoads, b.committedLoads) << label;
    EXPECT_EQ(a.committedStores, b.committedStores) << label;
    EXPECT_EQ(a.committedCondBranches, b.committedCondBranches)
        << label;
    EXPECT_EQ(a.executed, b.executed) << label;
    EXPECT_EQ(a.executedLoads, b.executedLoads) << label;
    EXPECT_EQ(a.executedStores, b.executedStores) << label;
    EXPECT_EQ(a.executedCondBranches, b.executedCondBranches) << label;
    EXPECT_EQ(a.mispredictedBranches, b.mispredictedBranches) << label;
    EXPECT_EQ(a.recoveries, b.recoveries) << label;
    EXPECT_EQ(a.squashedInsts, b.squashedInsts) << label;
    EXPECT_EQ(a.forwardedLoads, b.forwardedLoads) << label;
    EXPECT_EQ(a.insertStallNoRegCycles, b.insertStallNoRegCycles)
        << label;
    EXPECT_EQ(a.insertStallDqFullCycles, b.insertStallDqFullCycles)
        << label;
    EXPECT_EQ(a.noFreeRegCycles, b.noFreeRegCycles) << label;
    EXPECT_EQ(a.fetchBlockedCycles, b.fetchBlockedCycles) << label;
    EXPECT_EQ(a.writeBufferStallCycles, b.writeBufferStallCycles)
        << label;
    for (int c = 0; c < kNumCycleCauses; ++c) {
        EXPECT_EQ(a.causeCycles[c], b.causeCycles[c])
            << label << " cause " << cycleCauseName(CycleCause(c));
    }
    expectHistogramEq(a.dqDepth, b.dqDepth, label + " dqDepth");
    expectHistogramEq(a.windowDepth, b.windowDepth,
                      label + " windowDepth");
    expectHistogramEq(a.storeQueueDepth, b.storeQueueDepth,
                      label + " storeQueueDepth");
    for (int c = 0; c < kNumRegClasses; ++c) {
        for (int k = 0; k < 4; ++k) {
            expectHistogramEq(a.live[c][k], b.live[c][k],
                              label + " live[" + std::to_string(c) +
                                  "][" + std::to_string(k) + "]");
        }
    }
}

/** Simulate @p cfg on @p w and require the point record the scan
 *  scheduler produced for case @p label. */
void
expectMatchesScanReference(const CoreConfig &cfg, const Workload &w,
                           const std::string &label)
{
    const SimResult r = simulate(cfg, w);
    EXPECT_GT(r.proc.committed, 0u) << label;
    const auto it = kScanReference.find({w.spec->name, label});
    ASSERT_NE(it, kScanReference.end())
        << "no scan reference for " << w.spec->name << "/" << label;
    EXPECT_EQ(fnv1aHex(serve::pointRecordJson(r)), it->second)
        << w.spec->name << "/" << label;
}

/** The paper's 4-wide machine at a register count in the knee of the
 *  Figure-7 curves (enough stalls and enough issue traffic to
 *  exercise the wakeup lists). */
CoreConfig
paperCfg()
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 96;
    return cfg;
}

TEST(EventCoreEquality, AllWorkloadsBothExceptionModels)
{
    const auto suite = buildSpec92Suite(3);
    for (const Workload &w : suite) {
        for (const ExceptionModel model :
             {ExceptionModel::Precise, ExceptionModel::Imprecise}) {
            CoreConfig cfg = paperCfg();
            cfg.exceptionModel = model;
            expectMatchesScanReference(cfg, w,
                                       exceptionModelName(model));
        }
    }
}

TEST(EventCoreEquality, SplitDispatchQueues)
{
    const Workload w = buildWorkload("espresso", 4);
    CoreConfig cfg = paperCfg();
    cfg.splitDispatchQueues = true;
    expectMatchesScanReference(cfg, w, "split-queues");
}

TEST(EventCoreEquality, InOrderBranches)
{
    const Workload w = buildWorkload("gcc1", 4);
    CoreConfig cfg = paperCfg();
    cfg.inOrderBranches = true;
    expectMatchesScanReference(cfg, w, "inorder-branches");
}

TEST(EventCoreEquality, BlockingCache)
{
    const Workload w = buildWorkload("compress", 4);
    CoreConfig cfg = paperCfg();
    cfg.cacheKind = CacheKind::Lockup;
    expectMatchesScanReference(cfg, w, "lockup-cache");
}

TEST(EventCoreEquality, BoundedMshrsAndWriteBuffer)
{
    const Workload w = buildWorkload("su2cor", 4);
    CoreConfig cfg = paperCfg();
    cfg.dcache.maxOutstandingMisses = 2;
    cfg.dcache.writeBufferEntries = 4;
    cfg.dcache.writeBufferDrainCycles = 8;
    expectMatchesScanReference(cfg, w, "mshr+write-buffer");
}

TEST(EventCoreEquality, StarvedRegistersAndQueue)
{
    // Tiny register files and dispatch queue: the machine lives in
    // insert-stall territory, where register frees gate everything.
    const Workload w = buildWorkload("tomcatv", 3);
    CoreConfig cfg = paperCfg();
    cfg.numPhysRegs = 40;
    cfg.dqSize = 8;
    expectMatchesScanReference(cfg, w, "starved");
    cfg.exceptionModel = ExceptionModel::Imprecise;
    expectMatchesScanReference(cfg, w, "starved/imprecise");
}

TEST(EventCoreEquality, EightWideWithImperfectICache)
{
    const Workload w = buildWorkload("doduc", 3);
    CoreConfig cfg;
    cfg.issueWidth = 8;
    cfg.dqSize = 64;
    cfg.numPhysRegs = 96;
    cfg.perfectICache = false;
    cfg.icache.sizeBytes = 2 * 1024; // force real I-cache misses
    expectMatchesScanReference(cfg, w, "8-wide/small-icache");
}

TEST(EventCoreEquality, TwoWideMachine)
{
    // The narrowest supported machine: width/4-derived issue limits
    // floor at 1 (fp-divide, control), so an fp-heavy workload with
    // branches must still retire instructions — and match the scan
    // about every cycle of it.
    const Workload w = buildWorkload("doduc", 3);
    CoreConfig cfg;
    cfg.issueWidth = 2;
    cfg.dqSize = 16;
    cfg.numPhysRegs = 64;
    expectMatchesScanReference(cfg, w, "2-wide");
}

TEST(EventCoreEquality, EveryPredictorBackend)
{
    // The wakeup rework must be invariant to which predictor drives
    // speculation: each backend changes *what* is fetched down the
    // wrong path, never how the scheduler sees it.
    const Workload w = buildWorkload("gcc1", 3);
    for (const std::string &spec : predictorSpecs()) {
        CoreConfig cfg = paperCfg();
        cfg.predictor = spec;
        expectMatchesScanReference(cfg, w, "bpred/" + spec);
    }
}

TEST(EventCoreEquality, ResultBusArbitration)
{
    // Writeback-bus arbitration defers completions, which reshapes
    // the event ring; the wakeups must replay the scan's grants.
    // 0 = unlimited (the untouched fast path).
    const Workload w = buildWorkload("espresso", 3);
    for (const int buses : {1, 2, 0}) {
        CoreConfig cfg = paperCfg();
        cfg.resultBuses = buses;
        expectMatchesScanReference(cfg, w,
                              "buses=" + std::to_string(buses));
    }

    // The squeeze: one bus, starved registers, a weaker predictor —
    // deferred completions, register frees, and squashes interleave.
    CoreConfig cfg = paperCfg();
    cfg.resultBuses = 1;
    cfg.numPhysRegs = 48;
    cfg.predictor = "bimodal";
    expectMatchesScanReference(cfg, w, "bus1/starved/bimodal");
}

TEST(EventCoreEquality, TickSteppingMatchesRun)
{
    // run() owns the loop and its stop conditions; stepping tick()
    // by hand until done() must land on the same statistics.
    const Workload w = buildWorkload("ora", 3);
    CoreConfig cfg = paperCfg();
    cfg.numPhysRegs = 64;
    verifyProgram(w.program);

    Processor run_proc(cfg, w.program);
    run_proc.run();
    Processor tick_proc(cfg, w.program);
    while (!tick_proc.done())
        tick_proc.tick();

    expectProcStatsEq(tick_proc.stats(), run_proc.stats(),
                      "tick vs run");
}

} // namespace
} // namespace drsim
