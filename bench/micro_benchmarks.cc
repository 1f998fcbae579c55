/**
 * @file
 * google-benchmark microbenchmarks of the simulator's components —
 * not a paper experiment, but the tool that keeps the sweep harnesses
 * (fig3..fig10) fast enough to run everywhere.
 */

#include <benchmark/benchmark.h>

#include "bench/micro_benchmarks.hh"
#include "bpred/mcfarling.hh"
#include "common/random.hh"
#include "core/processor.hh"
#include "memory/cache.hh"
#include "timing/regfile_timing.hh"
#include "workloads/emulator.hh"
#include "workloads/kernels.hh"

namespace {

using namespace drsim;

void
BM_PredictorPredictUpdate(benchmark::State &state)
{
    CombinedPredictor pred;
    Rng rng(1);
    Addr pc = 0x1000;
    for (auto _ : state) {
        const std::uint64_t h = pred.history();
        const bool p = pred.predictAndUpdateHistory(pc);
        const bool actual = rng.chance(0.6);
        pred.update(pc, h, actual);
        if (p != actual)
            pred.repairHistory(h, actual);
        pc = 0x1000 + (pc * 29 + 4) % 8192;
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_PredictorPredictUpdate);

void
BM_CacheStreamLoads(benchmark::State &state)
{
    CacheConfig cfg;
    DataCache cache(CacheKind::LockupFree, cfg);
    Cycle now = 1;
    Addr addr = 0;
    InstUid uid = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.load(addr, now, uid++));
        addr += 8;
        now += 2;
    }
}
BENCHMARK(BM_CacheStreamLoads);

void
BM_CacheRandomLoads(benchmark::State &state)
{
    CacheConfig cfg;
    DataCache cache(CacheKind::LockupFree, cfg);
    Rng rng(2);
    Cycle now = 1;
    InstUid uid = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.load(rng.below(1 << 22) * 8, now, uid++));
        now += 2;
    }
}
BENCHMARK(BM_CacheRandomLoads);

void
BM_EmulatorStep(benchmark::State &state)
{
    Emulator emu(makeEspresso(1000000));
    for (auto _ : state) {
        if (emu.fetchBlocked())
            state.SkipWithError("program ended during benchmark");
        benchmark::DoNotOptimize(emu.stepArch());
    }
}
BENCHMARK(BM_EmulatorStep);

/** End-to-end simulation speed in committed instructions/second. */
void
BM_ProcessorCommitRate(benchmark::State &state)
{
    const Workload w =
        buildWorkload(state.range(0) == 0 ? "espresso" : "tomcatv",
                      1000);
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.dqSize = 32;
    cfg.numPhysRegs = 128;
    Processor proc(cfg, w.program);
    std::uint64_t committed = 0;
    for (auto _ : state) {
        if (proc.done())
            state.SkipWithError("program ended during benchmark");
        const std::uint64_t before = proc.stats().committed;
        proc.tick();
        committed += proc.stats().committed - before;
    }
    state.counters["insts_per_s"] = benchmark::Counter(
        double(committed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProcessorCommitRate)->Arg(0)->Arg(1);

void
BM_RegFileTimingModel(benchmark::State &state)
{
    int regs = 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(regFileTiming({regs, 8, 4, 64}));
        regs = regs == 2048 ? 32 : regs * 2;
    }
}
BENCHMARK(BM_RegFileTimingModel);

} // namespace

namespace drsim {
namespace bench {

int
runMicroBenchmarks(const exp::RunContext &)
{
    // No argv: google-benchmark reads its flags from the environment
    // (BENCHMARK_FILTER, BENCHMARK_MIN_TIME, ...).
    char arg0[] = "drsim";
    char *argv[] = {arg0, nullptr};
    int argc = 1;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace bench
} // namespace drsim
