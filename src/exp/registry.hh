/**
 * @file
 * The experiment registry: every paper table/figure reproduction,
 * ablation, and extension study described as data (a name, a banner,
 * declarative grids, a suite builder, and a print/export policy) and
 * runnable by name — from the single `drsim bench` driver or from
 * tests.  An ExperimentDef is a plain value: the registry's are built
 * once from a table, and a sweep-spec file (spec_file.hh) becomes one
 * at run time.
 *
 * Two shapes of experiment coexist:
 *
 *  - *Grid* experiments (the common case): grids() expands to the
 *    exact ExperimentSpec vector the legacy harness built by hand,
 *    the (spec, workload) points are computed — on the local worker
 *    pool, or by a `drsim serve` daemon — print() renders the stdout
 *    tables, and the exporting experiments write the
 *    `<name>_results.json` artifact (docs/RESULTS_SCHEMA.md).  One
 *    driver, runExperiment(), does all of this for every grid
 *    experiment; only the point computation varies.
 *
 *  - *Custom* experiments (simspeed's wall-clock timing loops,
 *    ext_critical_paths' pure timing-model printout): run() is an
 *    opaque harness body.  They still register, list, and run by
 *    name; they just have no grid to expand, so --dry-run, --filter
 *    and --server do not apply to them.
 */

#ifndef DRSIM_EXP_REGISTRY_HH
#define DRSIM_EXP_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/grid.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

namespace drsim {
namespace exp {

/**
 * Everything an experiment run needs from the outside world, resolved
 * once (environment variables, then `drsim bench` flags) instead of
 * being re-read piecemeal by every harness.
 */
struct RunContext
{
    /** Workload scale (DRSIM_SCALE; one unit ~ 10k committed insts). */
    int scale = kDefaultSuiteScale;
    /** Per-run committed-instruction cap (DRSIM_MAX_COMMITTED;
     *  0 = run to halt). */
    std::uint64_t maxCommitted = 0;
    /** Worker threads (0 = resolveJobs() default: DRSIM_JOBS, then
     *  hardware concurrency). */
    int jobs = 0;
    /** Directory for JSON results artifacts (DRSIM_RESULTS_DIR). */
    std::string resultsDir = ".";
    /** Interval sampling applied to every expanded spec
     *  (DRSIM_SAMPLE / --sample; disabled by default). */
    SamplingConfig sampling;
    /** Branch-predictor override applied to every expanded spec
     *  (DRSIM_PREDICTOR / --predictor; empty = keep each grid's own
     *  setting, normally the "mcfarling" default). */
    std::string predictor;
    /** Result-bus override applied to every expanded spec
     *  (DRSIM_RESULT_BUSES / --result-buses; -1 = keep each grid's
     *  own setting, normally 0 = unlimited). */
    int resultBuses = -1;

    /** Resolve scale/cap/results directory from the environment. */
    static RunContext fromEnv();
};

/**
 * Parse an `INTERVAL[:WINDOW[:WARMUP]]` sampling spec (the --sample
 * flag and DRSIM_SAMPLE env syntax).  Omitted WINDOW defaults to
 * interval/20 (at least 1); omitted WARMUP defaults to WINDOW.
 * fatal() on malformed text or a fourth field, and on an infeasible
 * combination with the config table's sampling finding
 * (requireFeasibleSampling).
 */
SamplingConfig parseSamplingSpec(const std::string &text);

/** DRSIM_SAMPLE parsed by parseSamplingSpec(), or sampling off when
 *  it is unset or empty; fatal() on a malformed spec. */
SamplingConfig samplingFromEnv();

struct ExperimentDef
{
    /** Registry key and artifact id. */
    std::string name;
    /** Banner line printed before a grid experiment runs. */
    std::string title;
    /** One-line summary for `drsim bench --list`. */
    std::string description;

    /** Declarative sweep; empty for custom experiments. */
    std::function<std::vector<GridDef>()> grids;
    /** Workload suite; empty = the SPEC92-like nine at ctx.scale. */
    std::function<std::vector<Workload>(const RunContext &ctx)> suite;
    /** Render the stdout tables of a full run (grid experiments). */
    std::function<void(const RunContext &ctx,
                       const std::vector<ExperimentResult> &results)>
        print;
    /** Write `<name>_results.json` after print() (the paper-artifact
     *  experiments and spec files that ask for it). */
    bool exportResults = false;

    /** Custom harness body; non-empty makes this a custom experiment
     *  (grids/suite/print/exportResults are ignored). */
    std::function<int(const RunContext &ctx)> run;

    /** The suite's name in the daemon's suite memo key
     *  (docs/SERVER.md "Suite memo"): "spec92" for the default suite,
     *  "classic", or "experiment:<name>" for a registered
     *  experiment's own suite builder. */
    std::string suiteName = "spec92";
};

/** All registered experiments, in documentation order. */
const std::vector<ExperimentDef> &experimentRegistry();

/** Lookup by name; nullptr when unknown. */
const ExperimentDef *findExperiment(const std::string &name);

/** Grid expansion with ctx's run options applied (commit cap,
 *  sampling, predictor and result-bus overrides) and every point
 *  screened by requireFeasibleConfig() — the one place either
 *  happens.  fatal() for custom experiments or an infeasible point. */
std::vector<ExperimentSpec>
expandExperiment(const ExperimentDef &def, const RunContext &ctx);

/** Build the experiment's workload suite. */
std::vector<Workload> buildSuite(const ExperimentDef &def,
                                 const RunContext &ctx);

/** How a grid's points get computed: every spec on every workload,
 *  in the order runExperiments() returns them. */
using PointRunner = std::function<std::vector<ExperimentResult>(
    const std::vector<ExperimentSpec> &specs,
    const std::vector<Workload> &suite)>;

/**
 * The one driver for every experiment: banner, grid expansion,
 * filtering, suite build, @p compute (empty = runExperiments() on
 * ctx.jobs workers), print, and (for exporters) the JSON artifact.
 * @p filter, when non-empty, restricts the run to specs whose name
 * contains it; filtered runs print the generic and stall summaries
 * instead of the curated printer and never export.  Custom
 * experiments just run their body.  Returns a process exit code.
 */
int runExperiment(const ExperimentDef &def, const RunContext &ctx,
                  const std::string &filter = "",
                  const PointRunner &compute = {});

/// @name Shared harness helpers (formerly bench/bench_util.hh)
/// @{

/**
 * The paper's machine configuration (Figure 2) for a given issue
 * width: the dispatch queue defaults to the paper's cost-effective
 * size (32 entries at 4-way, 64 at 8-way).
 */
CoreConfig paperConfig(int issue_width, int num_regs,
                       ExceptionModel model = ExceptionModel::Precise,
                       CacheKind cache = CacheKind::LockupFree);

/** Boxed section header. */
void banner(const char *title);

/**
 * Print the exclusive stall-cause breakdown (suite averages, percent
 * of cycles) for every experiment in @p results.  Causes that never
 * fired anywhere are omitted to keep the table short.
 */
void printStallSummary(const std::vector<ExperimentResult> &results);

/**
 * Write the JSON results artifact (docs/RESULTS_SCHEMA.md) to
 * `<ctx.resultsDir>/<id>_results.json` and tell the user where it
 * went; exits on I/O failure like the legacy harnesses did.
 */
void emitResults(const char *id, const RunContext &ctx,
                 const std::vector<ExperimentResult> &results);

/** Per-spec summary table used for --filter runs and spec files. */
void printGenericSummary(const std::vector<ExperimentResult> &results);

/** The classic-kernel family (workloads/classic.hh) wrapped as
 *  Workloads with stable WorkloadSpec storage; used by ext_classic
 *  and by sweep-spec files with "suite": "classic". */
std::vector<Workload> classicWorkloads();

/** One-line config summary for --dry-run audits. */
std::string configSummary(const CoreConfig &cfg);
/// @}

} // namespace exp
} // namespace drsim

#endif // DRSIM_EXP_REGISTRY_HH
