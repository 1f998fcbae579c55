/**
 * @file
 * Parallel experiment runner and machine-readable result export.
 *
 * Every (configuration, workload) simulation is independent: a run
 * owns its Processor, Emulator, caches, predictor and histograms, and
 * only *reads* the shared Program (see DESIGN.md, "Concurrency
 * model").  runExperiments() exploits this by fanning runs out over a
 * fixed-size thread pool and reassembling results by index, so the
 * output is bit-identical to the serial runSuite() (simulator.hh) no
 * matter how many workers raced to produce it.
 *
 * Job-count resolution (resolveJobs): an explicit positive argument
 * wins; otherwise the DRSIM_JOBS environment variable; otherwise the
 * hardware concurrency.  A job count of 1 bypasses the pool entirely
 * and runs the points in order on the calling thread.
 *
 * runExperiments() runs a batch of *named* configurations over one
 * suite and pairs naturally with resultsJson()/writeResultsFile(),
 * which serialize the batch to the JSON schema documented in
 * docs/RESULTS_SCHEMA.md.  The JSON deliberately excludes wall-clock
 * times and the job count, so artifacts from serial and parallel runs
 * of the same experiment are byte-identical and can be diffed.
 */

#ifndef DRSIM_SIM_RUNNER_HH
#define DRSIM_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace drsim {

/** Upper bound on a resolved job count; larger DRSIM_JOBS values are
 *  clamped (with a warning) rather than silently truncated. */
constexpr int kMaxJobs = 1024;

/**
 * Resolve an effective job count.  @p requested > 0 is used as-is;
 * @p requested <= 0 falls back to DRSIM_JOBS (when set and valid),
 * then to the hardware concurrency.  DRSIM_JOBS=0 is an explicit
 * auto-detect (hardware concurrency); values above kMaxJobs clamp to
 * it with a warning; garbage is warned about and ignored.  Always
 * returns >= 1.
 */
int resolveJobs(int requested = 0);

/** One named machine configuration in an experiment batch. */
struct ExperimentSpec
{
    /** Stable identifier, e.g. "w4-precise-r80"; used in the JSON. */
    std::string name;
    CoreConfig config;
};

/** Suite results for one ExperimentSpec, in spec order. */
struct ExperimentResult
{
    ExperimentSpec spec;
    SuiteResult suite;
};

/**
 * Run every spec over @p suite, fanning all (spec, workload) pairs
 * out over one shared pool so small sweeps still fill every worker.
 * Results are returned in spec order, each with its runs in workload
 * order — identical to looping runSuite() over the specs serially.
 */
std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentSpec> &specs,
               const std::vector<Workload> &suite, int jobs = 0);

/** Provenance recorded at the top level of a results file. */
struct RunInfo
{
    /** Artifact identity, normally the harness name, e.g. "fig6". */
    std::string runId;
    /** DRSIM_SCALE in effect when the suite was built. */
    int scale = 0;
    /** DRSIM_MAX_COMMITTED in effect (0 = run to halt). */
    std::uint64_t maxCommitted = 0;
};

/** The interval/window/warmup members of @p s, then "warmff": 0
 *  (every window warms its whole gap), in the order every document
 *  that carries sampling parameters uses. */
void writeSamplingMembers(json::Writer &w, const SamplingConfig &s);

/**
 * Serialize an experiment batch to the schema in
 * docs/RESULTS_SCHEMA.md (schema_version 2).  Deterministic: equal
 * inputs yield byte-equal strings, independent of the job count.
 * Zero-denominator ratios are emitted as JSON null, never 0.
 */
std::string resultsJson(const RunInfo &info,
                        const std::vector<ExperimentResult> &results);

/** Write resultsJson() to @p path; fatal() on I/O failure. */
void writeResultsFile(const std::string &path, const RunInfo &info,
                      const std::vector<ExperimentResult> &results);

/// @name Simulator-speed benchmark export (the simspeed experiment)
/// @{

/** One workload's best-of-reps full-detail wall-clock measurement. */
struct SpeedSample
{
    std::string workload;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
    double seconds = 0.0;
};

/**
 * One workload's sampled-vs-full-detail comparison.  The full leg
 * runs the detailed core to completion; the sampled leg runs the same
 * configuration under a SamplingConfig.  ciCovers records whether
 * the sampled 95% confidence interval contains the full-run IPC —
 * the accuracy contract every recorded sample must satisfy.
 */
struct SampledSpeedSample
{
    std::string workload;
    std::uint64_t committed = 0;
    /** Best-of-reps wall time for the full-detail run. */
    double fullSeconds = 0.0;
    /** Best-of-reps wall time for the sampled run. */
    double sampledSeconds = 0.0;
    /** Commit IPC of the full-detail run (ground truth). */
    double fullIpc = 0.0;
    /** Sampled-mode IPC estimate and its 95% CI half-width. */
    double ipcEstimate = 0.0;
    double ci95 = 0.0;
    std::uint64_t windows = 0;
    bool ciCovers = false;
};

/**
 * The sampled-simulation benchmark block: full-detail versus
 * SMARTS-style sampled wall clock on the longest-running workloads
 * (the gcc1/espresso-dominated set), plus the per-workload accuracy
 * check.  Populated by the simspeed experiment; "sampled" in the JSON.
 */
struct SampledSpeed
{
    /** The sampling spec the sampled legs ran under. */
    SamplingConfig sampling;
    std::vector<SampledSpeedSample> samples;
};

/**
 * Per-phase wall-clock split of one sampled leg (from SampleProfile):
 * checkpoint and warm-state acquisition (= the functional
 * fast-forward and warming cost, whether generated or loaded), window
 * machine construction and restore, gated warm-ups, and measured
 * windows.
 */
struct SampledPhaseSeconds
{
    double total = 0.0;
    double acquire = 0.0;
    double restore = 0.0;
    double warmup = 0.0;
    double window = 0.0;
};

/**
 * One workload's checkpoint-warm window-parallel sampled run versus
 * the library-disabled serial-window baseline (the PR 7 sampling cost
 * model) at the same sweep-realistic sampling spec.  Both legs
 * produce byte-identical statistics by construction — the benchmark
 * aborts otherwise — so only wall-clock and checkpoint provenance are
 * recorded.
 */
struct ParallelSampledSample
{
    std::string workload;
    /** Library disabled, windows serial: every run pays the full
     *  functional fast-forward. */
    SampledPhaseSeconds baseline;
    /** Checkpoint-warm, windows fanned out over the pool. */
    SampledPhaseSeconds warm;
    /** Snapshots the warm leg had to generate. */
    std::uint64_t ckptGenerated = 0;
    /** Worker count the warm leg's windows used. */
    int windowJobs = 1;
};

/**
 * The checkpoint-library benchmark block ("parallel_sampled" in the
 * JSON): the sampled sweep cost with fast-forward amortized into the
 * checkpoint library and measured windows sharded across the thread
 * pool.  Runs under its own sweep-realistic spec (sparse windows: the
 * regime of a 96 point register-file sweep, where the fast-forward
 * dominates each point).  The aggregate baseline/warm speedup is what
 * the CI gate tracks (>= 3x over the serial sampled cost at the same
 * spec).
 */
struct ParallelSampled
{
    /**
     * DRSIM_SCALE this block's suite was built at (independent of the
     * top-level scale).  Sampling amortizes the functional
     * fast-forward, so its benchmark regime is the *long* workload —
     * at the tiny top-level bench scale the measured windows dominate
     * and the ratio degenerates toward 1 regardless of how well the
     * library amortizes.
     */
    int scale = 0;
    /** The sampling spec both legs ran under. */
    SamplingConfig sampling;
    std::vector<ParallelSampledSample> samples;
};

/** Provenance recorded at the top level of BENCH_simspeed.json. */
struct SpeedRunInfo
{
    int scale = 0;
    std::uint64_t maxCommitted = 0;
    /** Timing repetitions per (workload, leg). */
    int reps = 1;
    int issueWidth = 0;
    int numPhysRegs = 0;
    SampledSpeed sampled;
    ParallelSampled parallelSampled;
};

/**
 * Serialize speed samples to the "simspeed-v3" schema documented in
 * docs/RESULTS_SCHEMA.md.  Unlike resultsJson() this file carries
 * wall-clock times and is *not* byte-deterministic across runs; the
 * derived speedup ratios are the comparable quantity.
 */
std::string simspeedJson(const SpeedRunInfo &info,
                         const std::vector<SpeedSample> &samples);

/** Write simspeedJson() to @p path; fatal() on I/O failure. */
void writeSimspeedFile(const std::string &path,
                       const SpeedRunInfo &info,
                       const std::vector<SpeedSample> &samples);
/// @}

} // namespace drsim

#endif // DRSIM_SIM_RUNNER_HH
