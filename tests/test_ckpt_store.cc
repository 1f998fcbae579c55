/**
 * @file
 * Tests for the content-addressed checkpoint library (DESIGN.md §5j)
 * and the window-parallel sampling driver built on it: bit-identical
 * sampled statistics across execution policies (serial, 2-way, 8-way
 * windows) and across cold and warm memory-tier states,
 * config-independent keys shared across a sweep, the warm-state key,
 * and the frozen verdicts of the per-window warming replay the
 * restored warm states replaced.
 */

#include <gtest/gtest.h>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "exp/registry.hh"
#include "serve/result_io.hh"
#include "sim/ckpt_store.hh"
#include "sim/simulator.hh"
#include "workloads/digest.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

using exp::parseSamplingSpec;

/** Restore the process-global execution policy on scope exit. */
class PolicyGuard
{
  public:
    PolicyGuard() : saved_(samplingExecPolicy()) {}
    ~PolicyGuard() { setSamplingExecPolicy(saved_); }

  private:
    SamplingExecPolicy saved_;
};

/** A sampled configuration small enough for a unit test but with
 *  several measured windows, warming replay, and a detailed tail. */
CoreConfig
sampledConfig(int regs = 96)
{
    CoreConfig cfg = exp::paperConfig(4, regs);
    cfg.sampling = parseSamplingSpec("3000:200:400:500");
    return cfg;
}

TEST(CkptSampling, WindowPolicyAndThreadCountAreByteIdentical)
{
    PolicyGuard restore;
    const Workload w = buildWorkload("espresso", 2);
    const CoreConfig cfg = sampledConfig();

    SamplingExecPolicy serial;
    serial.useCkptLibrary = false;
    serial.windowJobs = 1;
    setSamplingExecPolicy(serial);
    const SimResult base = simulate(cfg, w);
    ASSERT_TRUE(base.sampled.enabled);
    ASSERT_GE(base.sampled.windows, 3u);
    const std::string want = serve::pointRecordJson(base);

    for (int jobs : {1, 2, 8}) {
        SamplingExecPolicy pooled;
        pooled.useCkptLibrary = true;
        pooled.windowJobs = jobs;
        setSamplingExecPolicy(pooled);
        const SimResult got = simulate(cfg, w);
        EXPECT_EQ(serve::pointRecordJson(got), want)
            << "windowJobs=" << jobs;
    }
}

TEST(CkptSampling, EveryPredictorBackendRoundTripsThroughWindows)
{
    // The checkpoint restore path rebuilds predictor warmth by
    // replaying the architectural branch stream (shiftHistory), so
    // every backend — whatever its table shape — must come out of a
    // window-parallel run byte-identical to the serial driver.
    PolicyGuard restore;
    const Workload w = buildWorkload("espresso", 2);

    for (const std::string &spec : predictorSpecs()) {
        CoreConfig cfg = sampledConfig();
        cfg.predictor = spec;

        SamplingExecPolicy serial;
        serial.useCkptLibrary = false;
        serial.windowJobs = 1;
        setSamplingExecPolicy(serial);
        const SimResult base = simulate(cfg, w);
        ASSERT_TRUE(base.sampled.enabled) << spec;

        SamplingExecPolicy pooled;
        pooled.useCkptLibrary = true;
        pooled.windowJobs = 4;
        setSamplingExecPolicy(pooled);
        const SimResult got = simulate(cfg, w);
        EXPECT_EQ(serve::pointRecordJson(got),
                  serve::pointRecordJson(base))
            << spec;
    }
}

TEST(CkptSampling, ColdAndWarmMemoryRunsAreByteIdentical)
{
    // A sampling spec no other test uses, so the first run finds the
    // process-global library cold even when every test shares one
    // process.
    PolicyGuard restore;
    setSamplingExecPolicy(SamplingExecPolicy{});
    const Workload w = buildWorkload("gcc1", 2);
    CoreConfig cfg = sampledConfig();
    cfg.sampling = parseSamplingSpec("3100:200:400:500");

    const SimResult cold = simulate(cfg, w);
    ASSERT_TRUE(cold.sampled.enabled);
    EXPECT_GT(cold.profile.ckptGenerated, 0u);
    EXPECT_FALSE(cold.profile.ckptFromMemory);

    const SimResult warm = simulate(cfg, w);
    EXPECT_TRUE(warm.profile.ckptFromMemory);
    EXPECT_EQ(warm.profile.ckptGenerated, 0u);
    EXPECT_EQ(serve::pointRecordJson(warm),
              serve::pointRecordJson(cold));
}

TEST(CkptStore, RetiredDiskDirectoryIsFatal)
{
    EXPECT_THROW(CkptStore("ckpt-dir"), FatalError);
    EXPECT_NO_THROW(CkptStore(""));
}

TEST(CkptSampling, KeyIsConfigIndependentAndSharedAcrossSweep)
{
    PolicyGuard restore;
    setSamplingExecPolicy(SamplingExecPolicy{});
    const Workload w = buildWorkload("doduc", 2);

    // The key covers workload, program and sampling spec...
    const CkptKey a =
        ckptKeyFor("doduc", w.program, sampledConfig().sampling);
    CoreConfig other = sampledConfig(48);
    other.dcache.sizeBytes = 16 * 1024;
    const CkptKey b = ckptKeyFor("doduc", w.program, other.sampling);
    EXPECT_EQ(ckptKeyText(a), ckptKeyText(b));

    // ...and the sampling spec's stride fields, but not the warming
    // horizon: warmff moves no detail start, only the warm states.
    SamplingConfig bumped = other.sampling;
    bumped.warmup = other.sampling.warmup + 1;
    const CkptKey c = ckptKeyFor("doduc", w.program, bumped);
    EXPECT_NE(ckptKeyText(a), ckptKeyText(c));
    SamplingConfig horizon = other.sampling;
    horizon.warmff = other.sampling.warmff + 1;
    const CkptKey d = ckptKeyFor("doduc", w.program, horizon);
    EXPECT_EQ(ckptKeyText(a), ckptKeyText(d));

    // Two different machine configurations of one workload share one
    // entry: the second sweep point never regenerates.
    const SimResult first = simulate(sampledConfig(), w);
    const SimResult second = simulate(other, w);
    EXPECT_TRUE(second.profile.ckptFromMemory);
    EXPECT_EQ(second.profile.ckptGenerated, 0u);
    // Different configs time differently (and overshoot commit
    // groups differently), but the architectural sampling plan is
    // shared, so both see the same window placement.
    EXPECT_EQ(first.sampled.windows, second.sampled.windows);
}

TEST(CkptSampling, BudgetedRunsShareUnbudgetedCheckpoints)
{
    // Budget truncation happens at plan time, not generation time, so
    // a capped sweep point reuses the library entry of the uncapped
    // run — positions are budget-independent by construction.
    PolicyGuard restore;
    setSamplingExecPolicy(SamplingExecPolicy{});
    const Workload w = buildWorkload("mdljsp2", 2);

    const SimResult full = simulate(sampledConfig(), w);
    CoreConfig capped = sampledConfig();
    capped.maxCommitted = 5000;
    const SimResult part = simulate(capped, w);
    EXPECT_TRUE(part.profile.ckptFromMemory);
    EXPECT_EQ(part.profile.ckptGenerated, 0u);
    EXPECT_LE(part.sampled.windows, full.sampled.windows);
    EXPECT_EQ(part.stopReason, StopReason::InstLimit);
}

/**
 * fnv1aHex(pointRecordJson(result)) of sampled runs, keyed by
 * (workload, "spec/predictor/data cache"), as the sampling driver
 * produced them when every window task replayed its own warming
 * stretch (Processor::warmFastForward) into a fresh machine.  Restored
 * warm states replaced that replay as a pure performance rework; these
 * verdicts pin that the machine a window starts from did not change.
 * A digest here changes only when simulated behaviour changes.
 */
const std::map<std::pair<std::string, std::string>, std::string>
    kReplayReference = {
    {{"gcc1", "3000:200:400/mcfarling/perfect"}, "c0adcf77e6649cbe"},
    {{"gcc1", "3000:200:400/mcfarling/lockup"}, "dfe0f6266f03823f"},
    {{"gcc1", "3000:200:400/mcfarling/lockup-free"}, "c166a92a7a0611fc"},
    {{"gcc1", "3000:200:400/bimodal/perfect"}, "d7dc3cd79239aa17"},
    {{"gcc1", "3000:200:400/bimodal/lockup"}, "9a5e94fb3f38b39d"},
    {{"gcc1", "3000:200:400/bimodal/lockup-free"}, "f3f8178802b68166"},
    {{"gcc1", "3000:200:400/gshare/perfect"}, "3028c941766f645e"},
    {{"gcc1", "3000:200:400/gshare/lockup"}, "ac06a495900cca61"},
    {{"gcc1", "3000:200:400/gshare/lockup-free"}, "329cc4bf32ab64d1"},
    {{"gcc1", "3000:200:400/tage/perfect"}, "bf1ed64bb54dc4d5"},
    {{"gcc1", "3000:200:400/tage/lockup"}, "e1ad192eeaffe49c"},
    {{"gcc1", "3000:200:400/tage/lockup-free"}, "c5a7166af83a6500"},
    {{"gcc1", "3000:200:400/small-caches"}, "da65e5d353887cda"},
    {{"gcc1", "3000:200:400:500/mcfarling/perfect"}, "bbb2369eb62a0ba5"},
    {{"gcc1", "3000:200:400:500/mcfarling/lockup"}, "80f09bc1531fa404"},
    {{"gcc1", "3000:200:400:500/mcfarling/lockup-free"}, "25d329a0c2da19d2"},
    {{"gcc1", "3000:200:400:500/bimodal/perfect"}, "5a8e511c0644c221"},
    {{"gcc1", "3000:200:400:500/bimodal/lockup"}, "ea9ba450b0777633"},
    {{"gcc1", "3000:200:400:500/bimodal/lockup-free"}, "940bc5070cc8f976"},
    {{"gcc1", "3000:200:400:500/gshare/perfect"}, "b2a62756d517d717"},
    {{"gcc1", "3000:200:400:500/gshare/lockup"}, "f81ba705f495826d"},
    {{"gcc1", "3000:200:400:500/gshare/lockup-free"}, "f31e79a653350ef3"},
    {{"gcc1", "3000:200:400:500/tage/perfect"}, "5f05df9fe76de519"},
    {{"gcc1", "3000:200:400:500/tage/lockup"}, "a2e6a185868b86a9"},
    {{"gcc1", "3000:200:400:500/tage/lockup-free"}, "1da59e294c26b141"},
    {{"gcc1", "3000:200:400:500/small-caches"}, "071216ffe87a6d04"},
    {{"compress", "3000:200:400/mcfarling/perfect"}, "c8a40010d077f42b"},
    {{"compress", "3000:200:400/mcfarling/lockup"}, "990e719829e8ad6c"},
    {{"compress", "3000:200:400/mcfarling/lockup-free"}, "306cdebe1bff370e"},
    {{"compress", "3000:200:400/bimodal/perfect"}, "87fe198d0affd8c2"},
    {{"compress", "3000:200:400/bimodal/lockup"}, "0cec53c276968f5b"},
    {{"compress", "3000:200:400/bimodal/lockup-free"}, "37308190f3eb9c13"},
    {{"compress", "3000:200:400/gshare/perfect"}, "ba783129d1ef7598"},
    {{"compress", "3000:200:400/gshare/lockup"}, "60a6e0cd5f6f19e9"},
    {{"compress", "3000:200:400/gshare/lockup-free"}, "ad3aa726ecd64f69"},
    {{"compress", "3000:200:400/tage/perfect"}, "c26e5fd43afe02a3"},
    {{"compress", "3000:200:400/tage/lockup"}, "a32d061c362916e5"},
    {{"compress", "3000:200:400/tage/lockup-free"}, "5de5f7757fb836ae"},
    {{"compress", "3000:200:400/small-caches"}, "9dc89965949baa2f"},
    {{"compress", "3000:200:400:500/mcfarling/perfect"}, "705baecd7fe7e0da"},
    {{"compress", "3000:200:400:500/mcfarling/lockup"}, "5f6e099efc4d1bb1"},
    {{"compress", "3000:200:400:500/mcfarling/lockup-free"}, "c8e1fa2c7d41de2a"},
    {{"compress", "3000:200:400:500/bimodal/perfect"}, "87fe198d0affd8c2"},
    {{"compress", "3000:200:400:500/bimodal/lockup"}, "0cec53c276968f5b"},
    {{"compress", "3000:200:400:500/bimodal/lockup-free"}, "37308190f3eb9c13"},
    {{"compress", "3000:200:400:500/gshare/perfect"}, "6a22870414e8959a"},
    {{"compress", "3000:200:400:500/gshare/lockup"}, "4ddabe25db97761b"},
    {{"compress", "3000:200:400:500/gshare/lockup-free"}, "7144362bc9c22ab3"},
    {{"compress", "3000:200:400:500/tage/perfect"}, "a8046917f5d012f2"},
    {{"compress", "3000:200:400:500/tage/lockup"}, "152a5261b277715f"},
    {{"compress", "3000:200:400:500/tage/lockup-free"}, "0a9b51be0a5eb232"},
    {{"compress", "3000:200:400:500/small-caches"}, "a1e03c28528ebcda"},
};

TEST(CkptSampling, RestoredWarmStatesMatchFrozenReplayVerdicts)
{
    PolicyGuard restore;
    setSamplingExecPolicy(SamplingExecPolicy{});
    const std::pair<CacheKind, const char *> caches[] = {
        {CacheKind::Perfect, "perfect"},
        {CacheKind::Lockup, "lockup"},
        {CacheKind::LockupFree, "lockup-free"}};
    const auto expectFrozen = [](const CoreConfig &cfg,
                                 const Workload &w,
                                 const std::string &label) {
        const SimResult r = simulate(cfg, w);
        EXPECT_GE(r.sampled.windows, 3u) << label;
        const auto it = kReplayReference.find({w.spec->name, label});
        ASSERT_NE(it, kReplayReference.end())
            << "no replay reference for " << w.spec->name << "/"
            << label;
        EXPECT_EQ(fnv1aHex(serve::pointRecordJson(r)), it->second)
            << w.spec->name << "/" << label;
    };
    // gcc1 stresses the predictors, compress the data cache; warmff 0
    // warms whole gaps, 500 a bounded tail of each.
    for (const char *name : {"gcc1", "compress"}) {
        const Workload w = buildWorkload(name, 2);
        for (const std::string spec :
             {"3000:200:400", "3000:200:400:500"}) {
            for (const std::string &pred : predictorSpecs()) {
                for (const auto &[kind, kind_name] : caches) {
                    CoreConfig cfg = exp::paperConfig(4, 96);
                    cfg.sampling = parseSamplingSpec(spec);
                    cfg.predictor = pred;
                    cfg.cacheKind = kind;
                    expectFrozen(cfg, w,
                                 spec + "/" + pred + "/" + kind_name);
                }
            }
            // Caches small enough to evict: the restored per-set
            // recency ranks decide the detailed run's victims.
            CoreConfig cfg = exp::paperConfig(4, 96);
            cfg.sampling = parseSamplingSpec(spec);
            cfg.dcache.sizeBytes = 512;
            cfg.dcache.assoc = 2;
            cfg.icache.sizeBytes = 256;
            expectFrozen(cfg, w, spec + "/small-caches");
        }
    }
}

TEST(CkptStore, WarmKeyCoversExactlyTheFieldsWarmingReads)
{
    CoreConfig base = sampledConfig();
    const std::string baseText = warmKeyText(warmKeyFor(base));

    // Each CoreConfig field, and whether functional warming reads it.
    // A field the warm path reads must move the key; a field it does
    // not read must leave it alone, so configs differing only there
    // share one warm state.
    struct Field
    {
        const char *name;
        bool read;
        void (*mutate)(CoreConfig &);
    };
    const Field fields[] = {
        {"issueWidth", false, [](CoreConfig &c) { c.issueWidth = 8; }},
        {"dqSize", false, [](CoreConfig &c) { c.dqSize = 64; }},
        {"numPhysRegs", false, [](CoreConfig &c) { c.numPhysRegs = 48; }},
        {"exceptionModel", false,
         [](CoreConfig &c) {
             c.exceptionModel = ExceptionModel::Imprecise;
         }},
        {"predictor", true, [](CoreConfig &c) { c.predictor = "tage"; }},
        {"resultBuses", false, [](CoreConfig &c) { c.resultBuses = 2; }},
        {"cacheKind lockup", false,
         [](CoreConfig &c) { c.cacheKind = CacheKind::Lockup; }},
        {"cacheKind perfect", true,
         [](CoreConfig &c) { c.cacheKind = CacheKind::Perfect; }},
        {"dcache.sizeBytes", true,
         [](CoreConfig &c) { c.dcache.sizeBytes = 16 * 1024; }},
        {"dcache.assoc", true, [](CoreConfig &c) { c.dcache.assoc = 4; }},
        {"dcache.lineBytes", true,
         [](CoreConfig &c) { c.dcache.lineBytes = 64; }},
        {"dcache.hitLatency", false,
         [](CoreConfig &c) { c.dcache.hitLatency = 2; }},
        {"dcache.missPenalty", false,
         [](CoreConfig &c) { c.dcache.missPenalty = 30; }},
        {"dcache.maxOutstandingMisses", false,
         [](CoreConfig &c) { c.dcache.maxOutstandingMisses = 4; }},
        {"dcache.writeBufferEntries", false,
         [](CoreConfig &c) { c.dcache.writeBufferEntries = 8; }},
        {"dcache.writeBufferDrainCycles", false,
         [](CoreConfig &c) { c.dcache.writeBufferDrainCycles = 2; }},
        {"icache.sizeBytes", true,
         [](CoreConfig &c) { c.icache.sizeBytes = 16 * 1024; }},
        {"icache.assoc", true, [](CoreConfig &c) { c.icache.assoc = 4; }},
        {"icache.lineBytes", true,
         [](CoreConfig &c) { c.icache.lineBytes = 64; }},
        {"icache.missPenalty", false,
         [](CoreConfig &c) { c.icache.missPenalty = 30; }},
        {"perfectICache", false,
         [](CoreConfig &c) { c.perfectICache = true; }},
        {"inOrderBranches", false,
         [](CoreConfig &c) { c.inOrderBranches = true; }},
        {"speculativeHistoryUpdate", false,
         [](CoreConfig &c) { c.speculativeHistoryUpdate = false; }},
        {"storeToLoadForwarding", false,
         [](CoreConfig &c) { c.storeToLoadForwarding = false; }},
        {"splitDispatchQueues", false,
         [](CoreConfig &c) { c.splitDispatchQueues = true; }},
        {"maxCommitted", false, [](CoreConfig &c) { c.maxCommitted = 5000; }},
        // The stride fields are in the plan key the warm key extends.
        {"sampling.interval", false,
         [](CoreConfig &c) { c.sampling.interval = 4000; }},
        {"sampling.window", false,
         [](CoreConfig &c) { c.sampling.window = 300; }},
        {"sampling.warmup", false,
         [](CoreConfig &c) { c.sampling.warmup = 300; }},
        {"sampling.warmff", true,
         [](CoreConfig &c) { c.sampling.warmff = 700; }},
        {"deadlockCycles", false,
         [](CoreConfig &c) { c.deadlockCycles = 1000; }},
        {"auditInterval", false,
         [](CoreConfig &c) { c.auditInterval = 100; }},
        {"collectLiveHistograms", false,
         [](CoreConfig &c) { c.collectLiveHistograms = false; }},
        {"collectOccupancyHistograms", false,
         [](CoreConfig &c) { c.collectOccupancyHistograms = false; }},
    };
    for (const Field &f : fields) {
        CoreConfig changed = base;
        f.mutate(changed);
        ASSERT_FALSE(changed == base) << f.name << " did not change";
        EXPECT_EQ(warmKeyText(warmKeyFor(changed)) != baseText, f.read)
            << f.name;
    }

    // Tripwire: growing CoreConfig or CacheConfig without adding the
    // new field above (and to WarmKey, if warming reads it) would
    // share warm states across configs that warm differently.
    // x86-64 / libstdc++, matching CI.
    EXPECT_EQ(sizeof(CoreConfig), 224u)
        << "CoreConfig changed — audit warmKeyFor() coverage";
    EXPECT_EQ(sizeof(CacheConfig), 48u)
        << "CacheConfig changed — audit warmKeyFor() coverage";
}

TEST(CkptStore, ConfigsDifferingInUnreadFieldsShareOneWarmState)
{
    const Workload w = buildWorkload("espresso", 2);
    const CoreConfig base = sampledConfig();
    const CkptKey key = ckptKeyFor("espresso", w.program, base.sampling);
    CkptStore store("");
    const CkptStore::AcquireOutcome got = store.acquire(key, w.program);
    ASSERT_GE(got.plan->positions.size(), 3u);

    const auto warm = store.acquireWarm(key, *got.plan, w.program,
                                        warmKeyFor(base));
    // One warm state per detail start: every position but the
    // architectural end.
    EXPECT_EQ(warm->size(), got.plan->positions.size() - 1);
    EXPECT_EQ(store.stats().warmPasses, 1u);

    CoreConfig other = base;
    other.numPhysRegs = 48;
    other.issueWidth = 8;
    other.dqSize = 64;
    other.exceptionModel = ExceptionModel::Imprecise;
    other.cacheKind = CacheKind::Lockup;
    EXPECT_EQ(store.acquireWarm(key, *got.plan, w.program,
                                warmKeyFor(other)),
              warm);
    EXPECT_EQ(store.stats().warmPasses, 1u);

    // A key the warm path reads runs its own pass, and the result is
    // what the uncached generator computes.
    CoreConfig perfect = base;
    perfect.cacheKind = CacheKind::Perfect;
    const auto cold_d = store.acquireWarm(key, *got.plan, w.program,
                                          warmKeyFor(perfect));
    EXPECT_NE(cold_d, warm);
    EXPECT_EQ(store.stats().warmPasses, 2u);
    const WarmStates direct = generateWarmStates(
        key, *got.plan, w.program, warmKeyFor(perfect));
    ASSERT_EQ(direct.size(), cold_d->size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_TRUE((*cold_d)[i].dcache.empty()) << i;
        EXPECT_EQ(direct[i].icache, (*cold_d)[i].icache) << i;
        EXPECT_EQ(direct[i].predictor, (*cold_d)[i].predictor) << i;
    }
}

TEST(CkptStore, ConcurrentWarmAcquiresShareOnePass)
{
    const Workload w = buildWorkload("gcc1", 2);
    const CoreConfig base = sampledConfig();
    const CkptKey key = ckptKeyFor("gcc1", w.program, base.sampling);
    CkptStore store("");
    const auto plan = store.acquire(key, w.program).plan;

    // Sweep points that differ only in fields warming never reads,
    // arriving together: one pass runs, every caller gets its result.
    std::vector<std::shared_ptr<const WarmStates>> got(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] {
            CoreConfig cfg = base;
            cfg.numPhysRegs = 48 + 16 * int(i);
            got[i] = store.acquireWarm(key, *plan, w.program,
                                       warmKeyFor(cfg));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const auto &states : got)
        EXPECT_EQ(states, got.front());
    EXPECT_EQ(store.stats().warmPasses, 1u);
}

} // namespace
} // namespace drsim
