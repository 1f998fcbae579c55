/**
 * @file
 * Shared pieces of the drsim benchmark round runner (`drbench`): the
 * workload definitions, a monotonic clock, a flat JSON line writer,
 * and the correctness oracle helpers every workload uses.
 *
 * One `drbench` process runs one *round* of one workload (a fresh
 * process per round, the way a user runs `drsim_bench` or starts a
 * client) and prints a single JSON line; perfbench/run.py repeats
 * rounds for the measured time and reduces them to medians.
 */

#ifndef DRSIM_PERFBENCH_BENCH_HH
#define DRSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace bench {

/// @name Workload parameters
/// @{
/** sweep_full: the fig7 grid, full detail, on this many jobs. */
constexpr int kSweepJobs = 4;
constexpr int kFullScale = 3;
/** sweep_sampled: the sampling_validate regime (scale 30, interval
 *  40000, window 1000, warm-up 4000, whole-gap functional warming). */
constexpr int kSampledScale = 30;
constexpr const char *kSampleSpec = "40000:1000:4000";
/** serve_stream: small-scale single-config requests on 2 connections
 *  against a 2-worker daemon. */
constexpr int kServeScale = 2;
constexpr int kServeConnections = 2;
constexpr int kServeJobs = 2;
/** Requests per round (a run has at least 4 rounds, so at least ten
 *  requests lie beyond the pooled p95). */
constexpr int kStreamRequests = 55;
/** Distinct keys one stream touches (a third pre-filled on disk). */
constexpr int kStreamKeys = 24;
/// @}

/** Command-line options shared by every mode. */
struct Args
{
    std::string mode;     ///< sweep_full | sweep_sampled | serve_stream
    std::uint64_t seed = 1;
    bool trace = false;
    /** Also run the once-per-run checks (accuracy reference, seed
     *  self-test). */
    bool verify = false;
    /** Scratch directory inside the checkout (cache dirs, logs). */
    std::string work = ".";
    /** Path of the drsim_serve binary. */
    std::string serveBin;
};

double nowSeconds();

/** Median / linear-interpolated quantile of @p v (empty -> 0). */
double quantile(std::vector<double> v, double q);

/** This process's peak resident set (VmHWM) in MiB, or of @p pid. */
double peakRssMb(int pid = 0);

/** Flat JSON object writer for the one-line round reports. */
class JsonLine
{
  public:
    void num(const std::string &key, double v);
    void str(const std::string &key, const std::string &v);
    void list(const std::string &key, const std::vector<double> &v);
    void boolean(const std::string &key, bool v);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void keyOf(const std::string &key);
    std::string body_;
};

/** Outcome of the correctness oracle over a set of points. */
struct Checked
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first failure's reason ("" when none failed). */
    std::string why;

    void fail(const std::string &reason);
};

/** Instructions a kernel executes before its Halt (functional run). */
std::uint64_t functionalLength(const Program &program);

/**
 * Apply the per-point oracle to @p r: cause cycles must sum to cycles;
 * a full-detail run commits exactly @p arch_length + 1 instructions; a
 * sampled run has windows and a finite estimate.
 */
void checkPoint(const SimResult &r, std::uint64_t arch_length,
                const std::string &where, Checked &out);

/** FNV-1a over the lossless point records of @p runs, in order. */
std::string statsDigest(const std::vector<const SimResult *> &runs);

/** The fig7 grid, optionally sampled, as the registry expands it. */
std::vector<ExperimentSpec> fig7Specs(bool sampled);

/** The sampling_validate centre point (paperConfig(4, 96)). */
CoreConfig centreConfig(bool sampled);

/** Simulate @p config on every kernel of @p suite on a pool, timing
 *  each call into @p seconds. */
std::vector<SimResult> timedSuite(const CoreConfig &config,
                                  const std::vector<Workload> &suite,
                                  std::vector<double> &seconds);

std::vector<const SimResult *> pointers(const std::vector<SimResult> &v);

/// @name Workload entry points (each prints one JSON line)
/// @{
int runSweep(const Args &args);
int runServeStream(const Args &args);
/// @}

/// @name Component probes for the traced run (layers.cc)
/// @{
/** Replay each kernel's architectural stream into standalone caches
 *  and predictors; time emulator stepping and fast-forward. */
void probeComponents(const std::vector<Workload> &suite, JsonLine &out);
/** Checkpoint-store acquire on a fresh and a primed store. */
void probeCheckpoints(const std::vector<Workload> &suite,
                      JsonLine &out);
/** Point-record codec, point cache and results-JSON costs over the
 *  points the workload produced. */
void probeCodecs(const std::vector<ExperimentResult> &results,
                 const std::vector<Workload> &suite, int scale,
                 const std::string &dir, JsonLine &out);
/** Per-point core costs over full-detail results and their times. */
void reportCore(const std::vector<const SimResult *> &runs,
                const std::vector<double> &seconds, JsonLine &out);
/** Σ SampleProfile phases over sampled results. */
void reportSampling(const std::vector<const SimResult *> &runs,
                    JsonLine &out);
/** Sampling and checkpoint layers for the workloads that do not
 *  sample: the centre config sampled on the sampled sweep's kernels. */
void probeSampledKernels(std::uint64_t seed, JsonLine &out);
/// @}

/** What a served stream measured: the client-side latency split and
 *  the daemon's tier counters from its `stats` verb. */
struct ServedProbe
{
    double ackP50Ms = 0.0;
    double pointsP50Ms = 0.0;
    double memoryHits = 0.0;
    double diskHits = 0.0;
    double computed = 0.0;
    double coalesced = 0.0;
    double hitFrac = 0.0;
};
/** Run a short served stream against a fresh daemon (traced runs of
 *  the sweep workloads, which do not otherwise touch the daemon). */
ServedProbe probeServed(const Args &args, int requests);
void reportServed(const ServedProbe &p, JsonLine &out);

} // namespace bench
} // namespace drsim

#endif // DRSIM_PERFBENCH_BENCH_HH
