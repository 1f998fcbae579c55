/**
 * @file
 * Tests for the exclusive stall-cause attribution and the structure
 * occupancy histograms (core/processor.hh, CycleCause).
 *
 * The load-bearing property is *exhaustiveness*: every cycle lands in
 * exactly one CycleCause bucket, so the buckets sum to cycles on any
 * workload under any configuration.  The targeted tests then pin each
 * bucket with a microbenchmark built to hit that bottleneck and
 * nothing else.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/processor.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

std::uint64_t
causeSum(const ProcStats &s)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < kNumCycleCauses; ++c)
        sum += s.causeCycles[c];
    return sum;
}

void
expectExhaustive(const ProcStats &s, const std::string &label)
{
    EXPECT_GT(s.cycles, 0u) << label;
    EXPECT_EQ(causeSum(s), s.cycles) << label;
    // Productive cycles are exactly the Busy + IssueWidthBound pair.
    EXPECT_LE(s.busyCycles(), s.cycles) << label;
}

CoreConfig
baseConfig()
{
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 64;
    cfg.maxCommitted = 4000;
    return cfg;
}

// ----------------------------------------------------- exhaustiveness

/** Buckets sum to cycles on every tier-1 workload under stress
 *  configurations that exercise different bottlenecks. */
TEST(StallAttribution, BucketsSumToCyclesAcrossSuiteAndConfigs)
{
    const auto suite = buildSpec92Suite(1);

    std::vector<std::pair<std::string, CoreConfig>> configs;
    configs.push_back({"base", baseConfig()});

    CoreConfig tight = baseConfig();
    tight.numPhysRegs = 34; // barely above the architectural minimum
    configs.push_back({"tight-regs", tight});

    CoreConfig tiny_dq = baseConfig();
    tiny_dq.dqSize = 8;
    configs.push_back({"tiny-dq", tiny_dq});

    CoreConfig split = baseConfig();
    split.splitDispatchQueues = true;
    configs.push_back({"split-dq", split});

    CoreConfig lockup = baseConfig();
    lockup.cacheKind = CacheKind::Lockup;
    configs.push_back({"lockup", lockup});

    CoreConfig wb = baseConfig();
    wb.dcache.writeBufferEntries = 2;
    wb.dcache.writeBufferDrainCycles = 16;
    configs.push_back({"small-wb", wb});

    CoreConfig wide = baseConfig();
    wide.issueWidth = 8;
    wide.dqSize = 64;
    configs.push_back({"8-wide", wide});

    for (const auto &[name, cfg] : configs) {
        for (const auto &w : suite) {
            const SimResult r = simulate(cfg, w);
            expectExhaustive(r.proc,
                             name + "/" + w.spec->name);
        }
    }
}

TEST(StallAttribution, SimResultPercentagesAreConsistent)
{
    const auto suite = buildSpec92Suite(1);
    const SimResult r = simulate(baseConfig(), suite.front());
    double pct_sum = 0.0;
    for (int c = 0; c < kNumCycleCauses; ++c)
        pct_sum += r.causePct(CycleCause(c));
    EXPECT_NEAR(pct_sum, 100.0, 1e-9);
    EXPECT_NEAR(r.stallPct() + r.causePct(CycleCause::Busy) +
                    r.causePct(CycleCause::IssueWidthBound),
                100.0, 1e-9);
}

TEST(StallAttribution, CauseNamesAreStableAndDistinct)
{
    std::set<std::string> names;
    for (int c = 0; c < kNumCycleCauses; ++c)
        names.insert(cycleCauseName(CycleCause(c)));
    EXPECT_EQ(names.size(), std::size_t(kNumCycleCauses));
    EXPECT_EQ(std::string(cycleCauseName(CycleCause::Busy)), "busy");
    EXPECT_EQ(std::string(cycleCauseName(CycleCause::OperandWait)),
              "operand_wait");
    EXPECT_EQ(std::string(cycleCauseName(CycleCause::DqFullMem)),
              "dq_full_mem");
}

// -------------------------------------------------- targeted buckets

/** A register-starved machine attributes cycles to no_free_reg_int. */
TEST(StallAttribution, NoFreeRegBucketFires)
{
    ProgramBuilder b("reg-starved");
    b.li(intReg(1), 1);
    const auto top = b.here();
    // A long chain of integer writers keeps mappings live while the
    // chain drains, starving the 34-entry file.
    for (int i = 2; i <= 30; ++i)
        b.addi(intReg(i), intReg(i - 1), 1);
    b.subi(intReg(1), intReg(30), 29);
    b.bne(intReg(1), top);
    b.halt();

    CoreConfig cfg = baseConfig();
    cfg.numPhysRegs = 34;
    cfg.perfectICache = true;
    cfg.maxCommitted = 2000;
    const SimResult r = simulateProgram(cfg, b.build());
    expectExhaustive(r.proc, "reg-starved");
    EXPECT_GT(r.proc.cycleCauseCount(CycleCause::NoFreeRegInt), 0u);
}

/** A tiny dispatch queue behind a long-latency chain fills up. */
TEST(StallAttribution, DqFullBucketFires)
{
    ProgramBuilder b("dq-full");
    b.li(intReg(1), 50);
    b.li(intReg(2), 1);
    const auto top = b.here();
    // A serial multiply chain: every instruction waits in the queue
    // on its predecessor, so an 8-entry queue backs up into insert.
    for (int i = 0; i < 12; ++i)
        b.mul(intReg(2), intReg(2), intReg(2));
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();

    CoreConfig cfg = baseConfig();
    cfg.dqSize = 8;
    cfg.perfectICache = true;
    const SimResult r = simulateProgram(cfg, b.build());
    expectExhaustive(r.proc, "dq-full");
    EXPECT_GT(r.proc.cycleCauseCount(CycleCause::DqFullInt), 0u);
    EXPECT_GT(r.proc.insertStallDqFullCycles, 0u);
}

/** Back-to-back dependent divides serialize on the lone divider. */
TEST(StallAttribution, DividerBusyBucketFires)
{
    ProgramBuilder b("div-bound");
    b.li(intReg(1), 40);
    b.li(intReg(2), 7);
    b.itof(fpReg(1), intReg(2));
    b.itof(fpReg(2), intReg(2));
    const auto top = b.here();
    // Independent divides: at width 4 there is a single unpipelined
    // divider, so the second divide of each group waits for the unit,
    // not for operands.
    b.fdivd(fpReg(3), fpReg(1), fpReg(2));
    b.fdivd(fpReg(4), fpReg(1), fpReg(2));
    b.fdivd(fpReg(5), fpReg(1), fpReg(2));
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();

    CoreConfig cfg = baseConfig();
    cfg.perfectICache = true;
    const SimResult r = simulateProgram(cfg, b.build(), true);
    expectExhaustive(r.proc, "div-bound");
    EXPECT_GT(r.proc.cycleCauseCount(CycleCause::DividerBusy), 0u);
}

/** A tiny, slow write buffer stalls commit on stores. */
TEST(StallAttribution, WriteBufferFullBucketFires)
{
    ProgramBuilder b("store-bound");
    const Addr buf = b.allocWords(64);
    b.li(intReg(1), std::int64_t(buf));
    b.li(intReg(2), 200);
    const auto top = b.here();
    for (int i = 0; i < 8; ++i)
        b.stq(intReg(2), intReg(1), i * 8);
    b.subi(intReg(2), intReg(2), 1);
    b.bne(intReg(2), top);
    b.halt();

    CoreConfig cfg = baseConfig();
    cfg.perfectICache = true;
    cfg.dcache.writeBufferEntries = 1;
    cfg.dcache.writeBufferDrainCycles = 32;
    const SimResult r = simulateProgram(cfg, b.build());
    expectExhaustive(r.proc, "store-bound");
    EXPECT_GT(r.proc.cycleCauseCount(CycleCause::WriteBufferFull), 0u);
    EXPECT_GT(r.proc.writeBufferStallCycles, 0u);
}

/** Independent missing loads under a lockup cache: while one miss is
 *  outstanding the cache refuses every later (ready) load, so the
 *  stall is charged to the memory ports, not to operands. */
TEST(StallAttribution, MemPortSaturatedBucketFires)
{
    ProgramBuilder b("stream");
    constexpr int kWords = 16384; // 128 KiB, bigger than the cache
    const Addr tab = b.allocWords(kWords);
    b.li(intReg(1), std::int64_t(tab));
    b.li(intReg(2), 200);
    const auto top = b.here();
    // Four independent loads per iteration, one cache line apart:
    // every one misses, and the lockup cache services them serially.
    for (int i = 0; i < 4; ++i)
        b.ldq(intReg(4 + i), intReg(1), i * 32);
    b.addi(intReg(1), intReg(1), 128);
    b.subi(intReg(2), intReg(2), 1);
    b.bne(intReg(2), top);
    b.halt();

    CoreConfig cfg = baseConfig();
    cfg.perfectICache = true;
    cfg.cacheKind = CacheKind::Lockup;
    const SimResult r = simulateProgram(cfg, b.build());
    expectExhaustive(r.proc, "stream");
    EXPECT_GT(r.proc.cycleCauseCount(CycleCause::MemPortSaturated),
              0u);
}

/** Cold straight-line code stalls on instruction fetch. */
TEST(StallAttribution, ICacheStallBucketFires)
{
    ProgramBuilder b("cold-code");
    b.li(intReg(1), 0);
    for (int i = 0; i < 4000; ++i)
        b.addi(intReg(1), intReg(1), 1);
    b.halt();

    CoreConfig cfg = baseConfig();
    cfg.perfectICache = false;
    const SimResult r = simulateProgram(cfg, b.build());
    expectExhaustive(r.proc, "cold-code");
    EXPECT_GT(r.proc.cycleCauseCount(CycleCause::ICacheStall), 0u);
}

// ---------------------------------------------------------- occupancy

TEST(StallAttribution, OccupancyHistogramsSampleEveryCycle)
{
    const auto suite = buildSpec92Suite(1);
    const SimResult r = simulate(baseConfig(), suite.front());
    EXPECT_EQ(r.proc.dqDepth.totalSamples(), r.proc.cycles);
    EXPECT_EQ(r.proc.windowDepth.totalSamples(), r.proc.cycles);
    EXPECT_EQ(r.proc.storeQueueDepth.totalSamples(), r.proc.cycles);
    // Depths are bounded by the corresponding structure sizes.
    EXPECT_LE(r.proc.dqDepth.maxValue(),
              std::uint64_t(baseConfig().dqSize));
    EXPECT_GT(r.proc.windowDepth.maxValue(), 0u);
}

/** The exclusive buckets never disagree with the per-event legacy
 *  counters in direction: a run with zero legacy write-buffer stalls
 *  cannot attribute cycles to write_buffer_full, and vice versa. */
TEST(StallAttribution, ConsistentWithLegacyCounters)
{
    const auto suite = buildSpec92Suite(1);
    for (const auto &w : suite) {
        const SimResult r = simulate(baseConfig(), w);
        if (r.proc.cycleCauseCount(CycleCause::WriteBufferFull) > 0) {
            EXPECT_GT(r.proc.writeBufferStallCycles, 0u)
                << w.spec->name;
        }
        const std::uint64_t no_free =
            r.proc.cycleCauseCount(CycleCause::NoFreeRegInt) +
            r.proc.cycleCauseCount(CycleCause::NoFreeRegFp);
        if (no_free > 0) {
            EXPECT_GT(r.proc.noFreeRegCycles, 0u) << w.spec->name;
        }
        // The exclusive bucket is a subset of the (overlapping)
        // legacy observation counter.
        EXPECT_LE(no_free, r.proc.noFreeRegCycles) << w.spec->name;
    }
}

} // namespace
} // namespace drsim
