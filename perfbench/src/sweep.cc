/**
 * @file
 * The two in-process sweep workloads: the fig7 grid (96 configs x 9
 * kernels) full-detail (`sweep_full`) and interval-sampled
 * (`sweep_sampled`).  The untraced round runs the grid through
 * runExperiments(), exactly as `drsim_bench fig7` does; the traced
 * round runs the same cells on the same kind of pool with a span
 * around every simulate() call.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>

#include "bench.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "exp/registry.hh"
#include "workloads/digest.hh"

namespace drsim {
namespace bench {
namespace {

/** Spans recorded around calls into drsim modules, from any thread;
 *  kept in memory and reduced when the round ends. */
class Trace
{
  public:
    void
    add(const std::string &layer, double seconds)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[layer].push_back(seconds);
    }

    std::vector<double>
    samples(const std::string &layer) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = spans_.find(layer);
        return it == spans_.end() ? std::vector<double>{} : it->second;
    }

    double
    total(const std::string &layer) const
    {
        double sum = 0.0;
        for (double v : samples(layer))
            sum += v;
        return sum;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>> spans_;
};

struct Sweep
{
    std::vector<Workload> suite;
    std::vector<ExperimentSpec> specs;
    std::vector<ExperimentResult> results;
    double setupSeconds = 0.0;
    double sweepSeconds = 0.0;
    std::string error;
};

/** Setup: suite build, first verify per program, grid expansion. */
void
setUp(Sweep &s, int scale, std::uint64_t seed, bool sampled,
      Trace *trace)
{
    const double t0 = nowSeconds();
    s.suite = buildSpec92Suite(scale, seed);
    const double t1 = nowSeconds();
    for (const Workload &w : s.suite)
        verifyProgram(w.program);
    const double t2 = nowSeconds();
    s.specs = fig7Specs(sampled);
    const double t3 = nowSeconds();
    s.setupSeconds = t3 - t0;
    if (trace != nullptr) {
        trace->add("workloads.build", t1 - t0);
        trace->add("analysis.verify", t2 - t1);
        trace->add("exp.expand", t3 - t2);
    }
}

void
runUntraced(Sweep &s)
{
    const double t0 = nowSeconds();
    try {
        s.results = runExperiments(s.specs, s.suite, kSweepJobs);
    } catch (const FatalError &e) {
        s.error = e.what();
    }
    s.sweepSeconds = nowSeconds() - t0;
}

/** The same flat (spec, workload) grid runExperiments() fans out,
 *  with a span around each simulate() call. */
void
runTraced(Sweep &s, Trace &trace)
{
    const std::size_t nw = s.suite.size();
    std::vector<std::vector<SimResult>> grid(
        s.specs.size(), std::vector<SimResult>(nw));
    const double t0 = nowSeconds();
    try {
        ThreadPool pool(kSweepJobs);
        pool.parallelFor(s.specs.size() * nw, [&](std::size_t flat) {
            const double p0 = nowSeconds();
            grid[flat / nw][flat % nw] =
                simulate(s.specs[flat / nw].config, s.suite[flat % nw]);
            trace.add("sim.simulate", nowSeconds() - p0);
        });
    } catch (const FatalError &e) {
        s.error = e.what();
    }
    for (std::size_t i = 0; i < s.specs.size(); ++i)
        s.results.push_back({s.specs[i], SuiteResult(std::move(grid[i]))});
    s.sweepSeconds = nowSeconds() - t0;
}

std::vector<const SimResult *>
allRuns(const std::vector<ExperimentResult> &results)
{
    std::vector<const SimResult *> runs;
    for (const ExperimentResult &r : results)
        for (const SimResult &run : r.suite.runs())
            runs.push_back(&run);
    return runs;
}

/** Apply the per-point oracle to the whole sweep. */
Checked
checkSweep(const Sweep &s)
{
    Checked c;
    if (!s.error.empty()) {
        c.attempted = s.specs.size() * s.suite.size();
        c.failed = c.attempted;
        c.why = s.error;
        return c;
    }
    std::vector<std::uint64_t> lengths;
    for (const Workload &w : s.suite)
        lengths.push_back(functionalLength(w.program));
    for (const ExperimentResult &r : s.results) {
        const auto &runs = r.suite.runs();
        for (std::size_t w = 0; w < runs.size(); ++w)
            checkPoint(runs[w], lengths[w],
                       r.spec.name + "/" + runs[w].workload, c);
    }
    return c;
}

/** Simulated instructions the sweep advanced over: committed, plus
 *  fast-forwarded for sampled points. */
double
simulatedInsts(const std::vector<ExperimentResult> &results)
{
    double insts = 0.0;
    for (const SimResult *r : allRuns(results))
        insts += double(r->proc.committed + r->sampled.fastForwarded);
    return insts;
}

/**
 * Sampled-vs-full accuracy of the centre config on every kernel:
 * mean |estimate - full| / full IPC (percent) and the share of
 * kernels whose 95% CI misses the full-detail IPC.
 */
void
accuracy(const std::vector<Workload> &suite, JsonLine &out)
{
    std::vector<double> t;
    const std::vector<SimResult> full =
        timedSuite(centreConfig(false), suite, t);
    const std::vector<SimResult> samp =
        timedSuite(centreConfig(true), suite, t);
    double err = 0.0;
    int misses = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const double ipc = full[i].commitIpc();
        const double est = samp[i].sampled.ipcEstimate;
        err += std::abs(est - ipc) / ipc;
        if (std::abs(est - ipc) > samp[i].sampled.ci95)
            ++misses;
    }
    out.num("ipc_err_pct", 100.0 * err / double(suite.size()));
    out.num("ci_miss_frac", double(misses) / double(suite.size()));
}

/**
 * Seed self-test: a different seed must reach the kernels (program
 * digests differ) and the statistics (centre-point digest differs).
 */
bool
seedSelfTest(const std::vector<Workload> &suite, int scale,
             std::uint64_t seed, bool sampled, std::string &why)
{
    const std::vector<Workload> other = buildSpec92Suite(scale, seed + 1);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        if (programDigest(suite[i].program) ==
            programDigest(other[i].program)) {
            why = "seed does not reach kernel " + suite[i].spec->name;
            return false;
        }
    }
    std::vector<double> t;
    const std::vector<SimResult> a =
        timedSuite(centreConfig(sampled), suite, t);
    const std::vector<SimResult> b =
        timedSuite(centreConfig(sampled), other, t);
    const std::vector<SimResult> a2 =
        timedSuite(centreConfig(sampled), buildSpec92Suite(scale, seed), t);
    if (statsDigest(pointers(a)) != statsDigest(pointers(a2))) {
        why = "same seed gave different statistics";
        return false;
    }
    if (statsDigest(pointers(a)) == statsDigest(pointers(b))) {
        why = "different seeds gave identical statistics";
        return false;
    }
    return true;
}

} // namespace

int
runSweep(const Args &args)
{
    const bool sampled = args.mode == "sweep_sampled";
    const int scale = sampled ? kSampledScale : kFullScale;
    Trace trace;
    Sweep s;
    const double t0 = nowSeconds();
    setUp(s, scale, args.seed, sampled, args.trace ? &trace : nullptr);
    if (args.trace)
        runTraced(s, trace);
    else
        runUntraced(s);
    const double round_wall = nowSeconds() - t0;

    JsonLine out;
    out.str("mode", args.mode);
    out.num("setup_s", s.setupSeconds);
    out.num("sweep_s", s.sweepSeconds);
    out.num("round_s", round_wall);
    out.num("insts", simulatedInsts(s.results));
    out.num("rss_mb", peakRssMb());

    const Checked c = checkSweep(s);
    out.num("attempted", double(c.attempted));
    out.num("failed", double(c.failed));
    out.str("why", c.why);
    out.str("digest", s.error.empty() ? statsDigest(allRuns(s.results))
                                      : std::string("error"));

    if (args.verify) {
        if (sampled)
            accuracy(s.suite, out);
        std::string why;
        out.boolean("seed_selftest",
                    seedSelfTest(s.suite, scale, args.seed, sampled, why));
        out.str("seed_selftest_why", why);
    }

    if (args.trace) {
        // Time covered by spans: setup layers plus per-point simulate
        // spans spread over the pool's workers.
        const double point_sum = trace.total("sim.simulate");
        const double covered = trace.total("workloads.build") +
                               trace.total("analysis.verify") +
                               trace.total("exp.expand") +
                               point_sum / kSweepJobs;
        out.num("span_cover", covered / round_wall);

        std::vector<double> build = {trace.total("workloads.build")};
        for (int i = 0; i < 2; ++i) {
            const double b0 = nowSeconds();
            buildSpec92Suite(scale, args.seed);
            build.push_back(nowSeconds() - b0);
        }
        out.num("workloads.build_ms", 1e3 * quantile(build, 0.5));
        out.num("analysis.verify_ms", 1e3 * trace.total("analysis.verify"));
        out.num("exp.expand_ms", 1e3 * trace.total("exp.expand"));

        const std::vector<double> pts = trace.samples("sim.simulate");
        out.num("sim.simulate_p50_ms", 1e3 * quantile(pts, 0.5));
        out.num("sim.simulate_p95_ms", 1e3 * quantile(pts, 0.95));
        out.num("sim.pool_util",
                point_sum / (s.sweepSeconds * kSweepJobs));

        // Core costs come from full-detail calls: the sweep itself, or
        // for the sampled sweep the untimed full-detail reference runs.
        std::vector<const SimResult *> runs = allRuns(s.results);
        if (sampled) {
            std::vector<double> full_s;
            const std::vector<SimResult> full =
                timedSuite(centreConfig(false), s.suite, full_s);
            reportCore(pointers(full), full_s, out);
            reportSampling(runs, out);
            probeCheckpoints(s.suite, out);
        } else {
            reportCore(runs, pts, out);
            probeSampledKernels(args.seed, out);
        }
        probeComponents(s.suite, out);
        probeCodecs(s.results, s.suite, scale, args.work, out);
        reportServed(probeServed(args, 12), out);
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace bench
} // namespace drsim
