/**
 * @file
 * The tracked simulator-speed benchmark (registry name "simspeed"):
 * simulated MIPS (committed instructions per wall-clock second) of
 * the detailed core for every Table-1 workload, then the same
 * workloads sampled and checkpoint-warm parallel-sampled.  Writes
 * BENCH_simspeed.json ("simspeed-v3", see docs/RESULTS_SCHEMA.md);
 * the committed baseline of that file is what CI's regression gate
 * compares against.
 *
 * The sampled leg runs at kSampledSpec over the top-level suite.  The
 * parallel-sampled leg runs at kParallelSpec over its own suite at
 * scale kParallelScale: sparse windows on long programs, the cost
 * regime of a 96-point register-file sweep, where the functional
 * fast-forward dominates each sweep point and the checkpoint library
 * can amortize it.
 *
 * One extra knob on top of the usual harness environment variables:
 *   DRSIM_BENCH_REPS  timing repetitions per (workload, leg);
 *                     best-of-reps is recorded (default 3)
 */

#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/env.hh"
#include "common/logging.hh"
#include "exp/experiments.hh"

namespace drsim {
namespace exp {
namespace detail {

namespace {

constexpr const char *kSampledSpec = "40000:1000:4000";
constexpr const char *kParallelSpec = "400000:500:500";
constexpr int kParallelScale = 60;

double
timedRun(const CoreConfig &cfg, const Workload &w, int reps,
         SimResult &out)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        SimResult r = simulate(cfg, w);
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || s < best) {
            best = s;
            out = std::move(r);
        }
    }
    return best;
}

/**
 * The sampled-mode comparison: rerun every workload under the same
 * configuration with SMARTS-style sampling enabled and
 * record wall clock, the IPC estimate, and whether its 95% CI covers
 * the full-detail IPC.  The full-detail leg's timing and result are
 * reused from the detailed-core measurement (@p full,
 * @p full_results).
 */
void
measureSampled(SpeedRunInfo &info, const CoreConfig &full_cfg,
               const std::vector<Workload> &suite, int reps,
               const std::vector<SpeedSample> &full,
               const std::vector<SimResult> &full_results)
{
    CoreConfig sampled_cfg = full_cfg;
    sampled_cfg.sampling = parseSamplingSpec(kSampledSpec);

    // This leg is the tracked serial baseline: checkpoint library off
    // (every rep pays the full functional fast-forward) and windows
    // serial — the PR 7 sampling cost model.  The checkpoint-warm
    // parallel leg is measured against it below.
    SamplingExecPolicy serial;
    serial.useCkptLibrary = false;
    serial.windowJobs = 1;
    setSamplingExecPolicy(serial);

    std::printf("\nsampled mode, serial baseline (interval %llu, "
                "window %llu, warmup %llu), best of %d rep(s):\n",
                (unsigned long long)sampled_cfg.sampling.interval,
                (unsigned long long)sampled_cfg.sampling.window,
                (unsigned long long)sampled_cfg.sampling.warmup, reps);
    std::printf("%-10s %10s %10s %8s %9s %9s %7s %6s\n", "workload",
                "full s", "sampled s", "speedup", "full IPC",
                "estimate", "ci95", "cover");

    SampledSpeed sp;
    sp.sampling = sampled_cfg.sampling;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        SimResult res;
        SampledSpeedSample s;
        s.workload = suite[i].spec->name;
        s.fullSeconds = full[i].seconds;
        s.sampledSeconds = timedRun(sampled_cfg, suite[i], reps, res);
        s.committed = full_results[i].proc.committed;
        s.fullIpc = full_results[i].commitIpc();
        s.ipcEstimate = res.sampled.ipcEstimate;
        s.ci95 = res.sampled.ci95;
        s.windows = res.sampled.windows;
        s.ciCovers =
            std::abs(s.ipcEstimate - s.fullIpc) <= s.ci95;
        std::printf("%-10s %9.3fs %9.3fs %7.2fx %9.3f %9.3f %7.3f "
                    "%6s\n",
                    s.workload.c_str(), s.fullSeconds,
                    s.sampledSeconds,
                    s.fullSeconds / s.sampledSeconds, s.fullIpc,
                    s.ipcEstimate, s.ci95,
                    s.ciCovers ? "yes" : "NO");
        if (!s.ciCovers) {
            std::fprintf(stderr,
                         "simspeed: sampled CI on '%s' does not "
                         "cover the full-run IPC\n",
                         s.workload.c_str());
        }
        sp.samples.push_back(std::move(s));
    }

    double full_s = 0.0;
    double sampled_s = 0.0;
    for (const SampledSpeedSample &s : sp.samples) {
        full_s += s.fullSeconds;
        sampled_s += s.sampledSeconds;
    }
    std::printf("%-10s %9.3fs %9.3fs %7.2fx\n", "aggregate", full_s,
                sampled_s, full_s / sampled_s);
    info.sampled = std::move(sp);
    setSamplingExecPolicy(SamplingExecPolicy{});
}

/** Abort unless two sampled runs produced identical statistics. */
void
checkSampledIdentical(const SimResult &a, const SimResult &b)
{
    bool same = a.proc.committed == b.proc.committed &&
                a.proc.cycles == b.proc.cycles &&
                a.proc.executed == b.proc.executed &&
                a.sampled.windows == b.sampled.windows &&
                a.sampled.fastForwarded == b.sampled.fastForwarded &&
                a.sampled.warmupInsts == b.sampled.warmupInsts &&
                a.sampled.measuredInsts == b.sampled.measuredInsts &&
                a.sampled.measuredCycles == b.sampled.measuredCycles &&
                a.sampled.ipcEstimate == b.sampled.ipcEstimate &&
                a.sampled.ci95 == b.sampled.ci95;
    for (int c = 0; c < kNumCycleCauses; ++c)
        same = same && a.proc.causeCycles[c] == b.proc.causeCycles[c];
    if (!same)
        fatal("checkpoint-warm parallel sampled statistics diverged "
              "from the serial baseline on workload '", a.workload,
              "' — refusing to report a speedup");
}

/**
 * The checkpoint-library leg: the sampled sweep cost at a
 * sweep-realistic spec (sparse windows — the regime of a 96-point
 * register-file sweep, where the functional fast-forward dominates
 * each point), first with the library disabled and windows serial
 * (every run pays the full fast-forward), then checkpoint-warm with
 * the measured windows fanned out across the thread pool.  Statistics
 * must match exactly.
 *
 * The leg builds its own suite at kParallelScale: sampling amortizes
 * the functional fast-forward, so its benchmark regime is the long
 * workload.  At the tiny top-level bench scale the detailed windows
 * dominate the run and the ratio degenerates toward 1 no matter how
 * well the library amortizes the fast-forward.
 */
void
measureParallelSampled(SpeedRunInfo &info, const CoreConfig &full_cfg,
                       int reps)
{
    const std::vector<Workload> suite = buildSpec92Suite(kParallelScale);

    CoreConfig sampled_cfg = full_cfg;
    sampled_cfg.sampling = parseSamplingSpec(kParallelSpec);

    std::printf("\ncheckpoint-warm parallel sampled vs serial "
                "baseline (scale %d, interval %llu, window %llu, "
                "warmup %llu), best of %d rep(s):\n",
                kParallelScale,
                (unsigned long long)sampled_cfg.sampling.interval,
                (unsigned long long)sampled_cfg.sampling.window,
                (unsigned long long)sampled_cfg.sampling.warmup, reps);
    std::printf("%-10s %10s %10s %8s %9s %9s %5s\n", "workload",
                "serial s", "warm s", "speedup", "ckpt acq",
                "windows s", "jobs");

    ParallelSampled ps;
    ps.scale = kParallelScale;
    ps.sampling = sampled_cfg.sampling;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        // Serial baseline: library off, so every rep regenerates the
        // full functional fast-forward, and windows run in order.
        SamplingExecPolicy serial;
        serial.useCkptLibrary = false;
        serial.windowJobs = 1;
        setSamplingExecPolicy(serial);
        SimResult base_res;
        ParallelSampledSample s;
        s.workload = suite[i].spec->name;
        s.baseline.total =
            timedRun(sampled_cfg, suite[i], reps, base_res);
        s.baseline.acquire = base_res.profile.acquireSeconds;
        s.baseline.restore = base_res.profile.restoreSeconds;
        s.baseline.warmup = base_res.profile.warmupSeconds;
        s.baseline.window = base_res.profile.windowSeconds;

        // Checkpoint-warm leg.  The priming run (untimed) generates
        // the workload's checkpoint plan and publishes it in the
        // library's memory tier — the state every later sweep point
        // of this workload sees.
        setSamplingExecPolicy(SamplingExecPolicy{});
        SimResult primed = simulate(sampled_cfg, suite[i]);
        checkSampledIdentical(base_res, primed);

        SimResult res;
        s.warm.total = timedRun(sampled_cfg, suite[i], reps, res);
        checkSampledIdentical(base_res, res);
        s.warm.acquire = res.profile.acquireSeconds;
        s.warm.restore = res.profile.restoreSeconds;
        s.warm.warmup = res.profile.warmupSeconds;
        s.warm.window = res.profile.windowSeconds;
        s.ckptGenerated = res.profile.ckptGenerated;
        s.windowJobs = res.profile.windowJobs;

        std::printf("%-10s %9.4fs %9.4fs %7.2fx %8.4fs %8.4fs %5d\n",
                    s.workload.c_str(), s.baseline.total,
                    s.warm.total, s.baseline.total / s.warm.total,
                    s.warm.acquire, s.warm.window, s.windowJobs);
        ps.samples.push_back(std::move(s));
    }

    double base_s = 0.0;
    double warm_s = 0.0;
    for (const ParallelSampledSample &s : ps.samples) {
        base_s += s.baseline.total;
        warm_s += s.warm.total;
    }
    std::printf("%-10s %9.4fs %9.4fs %7.2fx\n", "aggregate", base_s,
                warm_s, base_s / warm_s);
    info.parallelSampled = std::move(ps);
    setSamplingExecPolicy(SamplingExecPolicy{});
}

} // namespace

int
runSimspeed(const RunContext &ctx)
{
    banner("simspeed: simulated MIPS, full detail and sampled");
    const int scale = ctx.scale;
    const std::uint64_t cap = ctx.maxCommitted;
    const int reps = int(envU64("DRSIM_BENCH_REPS", 3));
    const auto suite = buildSpec92Suite(scale);

    // The paper's cost-effective 4-wide configuration at a register
    // count in the knee of the Figure-7 curves: enough stalls and
    // enough issue traffic to exercise the wakeup lists.
    CoreConfig cfg = paperConfig(4, 96);
    cfg.maxCommitted = cap;

    std::printf("\nscale %d, cap %llu, best of %d rep(s) per leg\n\n",
                scale, (unsigned long long)cap, reps);
    std::printf("%-10s %12s %10s %10s\n", "workload", "committed",
                "seconds", "MIPS");

    std::vector<SpeedSample> samples;
    std::vector<SimResult> full_results;
    for (const Workload &w : suite) {
        SimResult res;
        SpeedSample s;
        s.workload = w.spec->name;
        s.seconds = timedRun(cfg, w, reps, res);
        s.committed = res.proc.committed;
        s.cycles = std::uint64_t(res.proc.cycles);
        full_results.push_back(std::move(res));
        std::printf("%-10s %12llu %9.3fs %10.2f\n", s.workload.c_str(),
                    (unsigned long long)s.committed, s.seconds,
                    double(s.committed) / s.seconds / 1e6);
        samples.push_back(std::move(s));
    }

    std::uint64_t committed = 0;
    double seconds = 0.0;
    for (const SpeedSample &s : samples) {
        committed += s.committed;
        seconds += s.seconds;
    }
    std::printf("%-10s %12llu %9.3fs %10.2f\n", "aggregate",
                (unsigned long long)committed, seconds,
                double(committed) / seconds / 1e6);

    SpeedRunInfo info;
    info.scale = scale;
    info.maxCommitted = cap;
    info.reps = reps;
    info.issueWidth = cfg.issueWidth;
    info.numPhysRegs = cfg.numPhysRegs;
    measureSampled(info, cfg, suite, reps, samples, full_results);
    measureParallelSampled(info, cfg, reps);
    const std::string path = ctx.resultsDir + "/BENCH_simspeed.json";
    try {
        writeSimspeedFile(path, info, samples);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "simspeed: %s\n", e.what());
        return 1;
    }
    std::printf("\n[simspeed] wrote JSON results to %s\n", path.c_str());
    return 0;
}

int
runSamplingValidate(const RunContext &ctx)
{
    banner("sampling_validate: sampled 95% CI vs full-detail IPC");
    const auto suite = buildSpec92Suite(ctx.scale);

    // The same cost-effective 4-wide fig7 center point the simspeed
    // benchmark tracks: every acceptance claim about sampled-mode
    // accuracy refers to this configuration.
    CoreConfig full_cfg = paperConfig(4, 96);
    full_cfg.maxCommitted = ctx.maxCommitted;
    CoreConfig sampled_cfg = full_cfg;
    sampled_cfg.sampling = ctx.sampling.enabled()
                               ? ctx.sampling
                               : parseSamplingSpec("40000:1000:4000");

    std::printf("\nscale %d, interval %llu, window %llu, warmup "
                "%llu\n\n",
                ctx.scale,
                (unsigned long long)sampled_cfg.sampling.interval,
                (unsigned long long)sampled_cfg.sampling.window,
                (unsigned long long)sampled_cfg.sampling.warmup);
    std::printf("%-10s %9s %9s %8s %8s %6s\n", "workload", "full IPC",
                "estimate", "ci95", "windows", "cover");

    int failures = 0;
    for (const Workload &w : suite) {
        const SimResult full = simulate(full_cfg, w);
        const SimResult samp = simulate(sampled_cfg, w);
        const double ipc = full.commitIpc();
        const bool cover =
            std::abs(samp.sampled.ipcEstimate - ipc) <=
            samp.sampled.ci95;
        std::printf("%-10s %9.4f %9.4f %8.4f %8llu %6s\n",
                    w.spec->name.c_str(), ipc,
                    samp.sampled.ipcEstimate, samp.sampled.ci95,
                    (unsigned long long)samp.sampled.windows,
                    cover ? "yes" : "NO");
        if (!cover)
            ++failures;
    }
    if (failures != 0) {
        std::fprintf(stderr,
                     "sampling_validate: %d workload(s) whose "
                     "sampled CI does not cover the full-run IPC\n",
                     failures);
        return 1;
    }
    std::printf("\nevery sampled 95%% CI covers its full-detail "
                "IPC\n");
    return 0;
}

} // namespace detail
} // namespace exp
} // namespace drsim
