/**
 * @file
 * `drsim run` — run any workload under any machine configuration of
 * the paper (and this repository's extensions) and print a full
 * statistics report.
 *
 *   drsim run --workload compress --regs 80
 *   drsim run --workload classic:queens --width 8 --model imprecise
 *   drsim run --workload tomcatv --trace trace.txt --max-committed 2000
 *   drsim run --workload su2cor --scale 30 --sample 40000:1000:4000
 *   drsim run --help
 *
 * The configuration is screened by requireFeasibleConfig() like every
 * other entry point's, so an infeasible machine is a runtime failure
 * (exit 1) before anything is simulated.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "core/config_check.hh"
#include "core/processor.hh"
#include "exp/registry.hh"
#include "sim/options.hh"
#include "sim/simulator.hh"
#include "timing/regfile_timing.hh"
#include "tools/verbs.hh"
#include "workloads/classic.hh"

namespace {

using namespace drsim;

void
report(const Processor &proc, const CoreConfig &cfg)
{
    const ProcStats &s = proc.stats();
    std::printf("---------------- run summary ----------------\n");
    std::printf("%-26s %s\n", "stop reason",
                proc.stopReason() == StopReason::Halted
                    ? "program halted"
                    : "instruction limit");
    std::printf("%-26s %llu\n", "cycles",
                (unsigned long long)s.cycles);
    std::printf("%-26s %llu\n", "committed instructions",
                (unsigned long long)s.committed);
    std::printf("%-26s %llu\n", "executed instructions",
                (unsigned long long)s.executed);
    std::printf("%-26s %.3f / %.3f\n", "issue / commit IPC",
                s.issueIpc(), s.commitIpc());
    std::printf("%-26s %.2f%% of %llu\n", "load miss rate",
                100.0 * proc.loadMissRate(),
                (unsigned long long)s.executedLoads);
    std::printf("%-26s %llu\n", "secondary misses (merges)",
                (unsigned long long)proc.dcache().stats().loadMerges);
    std::printf("%-26s %.2f%% of %llu\n", "cbr mispredict rate",
                100.0 * s.mispredictRate(),
                (unsigned long long)s.executedCondBranches);
    std::printf("%-26s %llu (squashed %llu)\n", "recoveries",
                (unsigned long long)s.recoveries,
                (unsigned long long)s.squashedInsts);
    std::printf("%-26s %llu\n", "store->load forwards",
                (unsigned long long)s.forwardedLoads);
    std::printf("%-26s %.1f%%\n", "no-free-register time",
                s.cycles ? 100.0 * double(s.noFreeRegCycles) /
                               double(s.cycles)
                         : 0.0);
    for (int c = 0; c < kNumRegClasses; ++c) {
        const char *cls = c == 0 ? "int" : "fp";
        std::printf("%-3s live regs p50/p90/max  %llu / %llu / %llu\n",
                    cls,
                    (unsigned long long)s.live[c][3].percentile(0.5),
                    (unsigned long long)s.live[c][3].percentile(0.9),
                    (unsigned long long)s.live[c][3].maxValue());
        std::printf("%-3s mean register lifetime %.1f cycles\n", cls,
                    proc.rename()
                        .lifetimeHistogram(RegClass(c))
                        .mean());
    }
    const auto t = regFileTiming(
        intRegFileGeometry(cfg.issueWidth, cfg.numPhysRegs));
    std::printf("%-26s %.3f ns -> %.2f BIPS\n",
                "int RF cycle time (0.5um)", t.cycleNs,
                bipsEstimate(s.commitIpc(), t.cycleNs));
}

/** The summary of an interval-sampled run (DESIGN.md §5h). */
void
reportSampled(const SimResult &r, const CoreConfig &cfg)
{
    const SampledStats &s = r.sampled;
    std::printf("------------ sampled run summary ------------\n");
    std::printf("%-26s %s\n", "stop reason",
                r.stopReason == StopReason::Halted ? "program halted"
                                                   : "instruction limit");
    std::printf("%-26s %llu:%llu:%llu\n", "sampling (I:W:U)",
                (unsigned long long)cfg.sampling.interval,
                (unsigned long long)cfg.sampling.window,
                (unsigned long long)cfg.sampling.warmup);
    std::printf("%-26s %llu\n", "measured windows",
                (unsigned long long)s.windows);
    std::printf("%-26s %.3f +/- %.3f\n", "commit IPC estimate (95%)",
                s.ipcEstimate, s.ci95);
    std::printf("%-26s %llu measured, %llu warm-up\n",
                "detailed instructions",
                (unsigned long long)s.measuredInsts,
                (unsigned long long)s.warmupInsts);
    std::printf("%-26s %llu\n", "fast-forwarded",
                (unsigned long long)s.fastForwarded);
    std::printf("%-26s %.2f%% of %llu\n", "load miss rate",
                100.0 * r.loadMissRate,
                (unsigned long long)r.proc.executedLoads);
    std::printf("%-26s %.2f%% of %llu\n", "cbr mispredict rate",
                100.0 * r.mispredictRate(),
                (unsigned long long)r.proc.executedCondBranches);
}

} // namespace

Program
drsim::tools::namedProgram(const std::string &name, int scale,
                           std::uint64_t seed)
{
    if (name.rfind("classic:", 0) == 0) {
        const std::string sub = name.substr(8);
        for (auto &[n, prog] : buildClassicSuite()) {
            if (n == sub)
                return std::move(prog);
        }
        fatal("unknown classic kernel '", sub,
              "' (daxpy, sieve, queens, wordcopy, whet)");
    }
    return buildWorkload(name, scale, seed).program;
}

int
drsim::tools::runVerb(int argc, const char *const *argv)
{
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();
    constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();

    std::string workload = "compress";
    std::int64_t scale = 10;
    std::int64_t seed = 0;
    std::int64_t width = 4;
    std::int64_t dq = -1;
    std::int64_t regs = 128;
    std::string model = "precise";
    std::string cache = "lockup-free";
    std::int64_t mshrs = 0;
    std::int64_t wb_entries = 0;
    std::int64_t wb_drain = 4;
    std::int64_t max_committed = 0;
    bool split_queues = false;
    bool inorder_branches = false;
    bool no_forwarding = false;
    bool no_spec_history = false;
    bool perfect_icache = false;
    std::string trace_file;
    std::string sample;

    OptionParser p;
    p.addString("workload", &workload,
                "SPEC92-like kernel name, or classic:<name>");
    p.addInt("scale", &scale, "workload scale (~10k insts per unit)",
             1, kInt);
    p.addInt("seed", &seed, "data seed (0 = kernel default)", 0, kI64);
    p.addInt("width", &width, "issue width, 4 or 8", 0, kInt);
    p.addInt("dq", &dq, "dispatch-queue entries (-1 = 32/64 by width)",
             -1, kInt);
    p.addInt("regs", &regs, "physical registers per file", 0, kInt);
    p.addString("model", &model, "exception model: precise|imprecise");
    p.addString("cache", &cache,
                "data cache: perfect|lockup|lockup-free");
    p.addInt("mshrs", &mshrs, "max outstanding misses (0 = unlimited)",
             0, kU32);
    p.addInt("wb-entries", &wb_entries,
             "write-buffer entries (0 = unlimited)", 0, kU32);
    p.addInt("wb-drain", &wb_drain, "cycles per write-buffer drain", 0,
             kI64);
    p.addInt("max-committed", &max_committed,
             "stop after N commits (0 = run to halt)", 0, kI64);
    p.addFlag("split-queues", &split_queues,
              "per-class dispatch queues (R10000-style)");
    p.addFlag("inorder-branches", &inorder_branches,
              "execute conditional branches in program order");
    p.addFlag("no-forwarding", &no_forwarding,
              "disable store->load forwarding");
    p.addFlag("no-spec-history", &no_spec_history,
              "update predictor history at execute, not insert");
    p.addFlag("perfect-icache", &perfect_icache,
              "model every instruction fetch as a hit");
    p.addString("trace", &trace_file,
                "write a per-instruction pipeline trace to this file");
    p.addString("sample", &sample,
                "I[:W[:U]] interval-sampled run: print the sampled "
                "IPC estimate instead of a full-detail run "
                "($DRSIM_SAMPLE; same spec as drsim bench --sample)");

    if (const auto rc = p.parseCommandLine(argc, argv, "drsim run"))
        return *rc;
    // A malformed spec is a usage error, from the flag or the env.
    SamplingConfig sampling;
    try {
        sampling = sample.empty() ? exp::samplingFromEnv()
                                  : exp::parseSamplingSpec(sample);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "drsim run: %s\n", e.what());
        return 2;
    }
    if (sampling.enabled() && !trace_file.empty()) {
        std::fprintf(stderr, "drsim run: --trace needs a full-detail "
                             "run (drop --sample / DRSIM_SAMPLE)\n");
        return 2;
    }

    CoreConfig cfg;
    cfg.issueWidth = int(width);
    cfg.dqSize = dq < 0 ? (width == 4 ? 32 : 64) : int(dq);
    cfg.numPhysRegs = int(regs);
    if (model == "precise") {
        cfg.exceptionModel = ExceptionModel::Precise;
    } else if (model == "imprecise") {
        cfg.exceptionModel = ExceptionModel::Imprecise;
    } else {
        fatal("unknown exception model '", model, "'");
    }
    if (cache == "perfect") {
        cfg.cacheKind = CacheKind::Perfect;
    } else if (cache == "lockup") {
        cfg.cacheKind = CacheKind::Lockup;
    } else if (cache == "lockup-free") {
        cfg.cacheKind = CacheKind::LockupFree;
    } else {
        fatal("unknown cache kind '", cache, "'");
    }
    cfg.dcache.maxOutstandingMisses = std::uint32_t(mshrs);
    cfg.dcache.writeBufferEntries = std::uint32_t(wb_entries);
    cfg.dcache.writeBufferDrainCycles = Cycle(wb_drain);
    cfg.maxCommitted = std::uint64_t(max_committed);
    cfg.splitDispatchQueues = split_queues;
    cfg.inOrderBranches = inorder_branches;
    cfg.storeToLoadForwarding = !no_forwarding;
    cfg.speculativeHistoryUpdate = !no_spec_history;
    cfg.perfectICache = perfect_icache;
    cfg.sampling = sampling;
    requireFeasibleConfig(cfg, workload);

    const Program prog =
        namedProgram(workload, int(scale), std::uint64_t(seed));
    std::printf("drsim: %s (%zu static insts), %lld-way, DQ=%d, "
                "%lld regs, %s, %s cache\n",
                workload.c_str(), prog.numInsts(),
                (long long)width, cfg.dqSize, (long long)regs,
                model.c_str(), cache.c_str());

    if (cfg.sampling.enabled()) {
        reportSampled(simulateProgram(cfg, prog), cfg);
        return 0;
    }
    verifyProgram(prog);
    Processor proc(cfg, prog);
    std::ofstream trace_os;
    if (!trace_file.empty()) {
        trace_os.open(trace_file);
        if (!trace_os)
            fatal("cannot open trace file '", trace_file, "'");
        proc.setTrace(&trace_os);
    }
    proc.run();
    report(proc, cfg);
    if (!trace_file.empty())
        std::printf("pipeline trace written to %s\n",
                    trace_file.c_str());
    return 0;
}
