/**
 * @file
 * `drsim bench` — the one driver for every registered experiment.
 *
 * Every paper table/figure reproduction, ablation, and extension
 * study lives in the experiment registry (src/exp) and runs by name:
 *
 *   drsim bench --list                  # what exists
 *   drsim bench table1 fig7             # run experiments in order
 *   drsim bench --dry-run fig7          # expanded points, no sims
 *   drsim bench --filter w4- fig6       # subset of a sweep
 *   drsim bench --json out/ table1      # artifact directory
 *   drsim bench --spec sweep.json       # declarative spec file
 *
 * Experiment names and spec files resolve to one list of
 * ExperimentDefs up front; every one then runs through the same
 * driver (exp::runExperiment), with its points computed locally or,
 * under --server, by a `drsim serve` daemon.
 *
 * Flags override the corresponding DRSIM_* environment variables
 * (DRSIM_SCALE, DRSIM_MAX_COMMITTED, DRSIM_JOBS, DRSIM_RESULTS_DIR,
 * DRSIM_SAMPLE, DRSIM_PREDICTOR, DRSIM_RESULT_BUSES), which all keep
 * working, so existing CI recipes behave identically.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "exp/registry.hh"
#include "exp/spec_file.hh"
#include "serve/client.hh"
#include "sim/options.hh"
#include "sim/runner.hh"
#include "tools/verbs.hh"

namespace {

using namespace drsim;
using namespace drsim::exp;

/** One resolved run target: its def and how its points get computed
 *  (empty = on the local worker pool). */
struct Target
{
    ExperimentDef def;
    PointRunner compute;
};

void
listExperiments()
{
    std::printf("%-18s %-6s %6s  %s\n", "experiment", "kind",
                "points", "description");
    for (const ExperimentDef &def : experimentRegistry()) {
        if (def.run) {
            std::printf("%-18s %-6s %6s  %s\n", def.name.c_str(),
                        "custom", "-", def.description.c_str());
            continue;
        }
        std::size_t points = 0;
        for (const GridDef &grid : def.grids())
            points += gridPoints(grid);
        std::printf("%-18s %-6s %6zu  %s\n", def.name.c_str(), "grid",
                    points, def.description.c_str());
    }
}

int
dryRun(const ExperimentDef &def, const RunContext &ctx,
       const std::string &filter)
{
    if (def.run) {
        std::printf("%s: (custom harness; no declarative grid)\n",
                    def.name.c_str());
        return 0;
    }
    std::vector<ExperimentSpec> specs = expandExperiment(def, ctx);
    std::erase_if(specs, [&filter](const ExperimentSpec &spec) {
        return spec.name.find(filter) == std::string::npos;
    });
    const std::vector<Workload> suite = buildSuite(def, ctx);
    std::printf("%s: %zu specs x %zu workloads = %zu points\n",
                def.name.c_str(), specs.size(), suite.size(),
                specs.size() * suite.size());
    for (const ExperimentSpec &spec : specs) {
        for (const Workload &w : suite) {
            std::printf("  %s x %s  [%s]\n", spec.name.c_str(),
                        w.spec->name.c_str(),
                        configSummary(spec.config).c_str());
        }
    }
    if (specs.empty() && !filter.empty()) {
        std::fprintf(stderr,
                     "%s: no spec name contains --filter '%s'\n",
                     def.name.c_str(), filter.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
drsim::tools::benchVerb(int argc, const char *const *argv)
{
    // DRSIM_SAMPLE is the --sample default: a malformed one is a
    // usage error too.
    RunContext ctx;
    try {
        ctx = RunContext::fromEnv();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "drsim bench: %s\n", e.what());
        return 2;
    }
    bool list = false;
    bool dry_run = false;
    std::string filter;
    std::string results_dir;
    std::string sample;
    std::string predictor;
    std::string server;
    std::string server_stats;
    std::vector<std::string> spec_files;
    std::vector<std::string> names;
    std::int64_t scale = ctx.scale;
    // DRSIM_MAX_COMMITTED may exceed the flag's range; the flag
    // overrides it only when given a different value.
    const std::int64_t env_cap = std::int64_t(std::min<std::uint64_t>(
        ctx.maxCommitted, std::numeric_limits<std::int64_t>::max()));
    std::int64_t max_committed = env_cap;
    std::int64_t jobs = ctx.jobs;
    std::int64_t result_buses = ctx.resultBuses;
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();

    OptionParser p;
    p.allowPositionals(&names, "[experiment...]");
    p.addFlag("list", &list, "list every registered experiment");
    p.addFlag("dry-run", &dry_run,
              "print the expanded (config, workload) points instead "
              "of simulating");
    p.addString("filter", &filter,
                "run only specs whose name contains this");
    p.addString("json", &results_dir,
                "write JSON artifacts to this directory "
                "($DRSIM_RESULTS_DIR or .)");
    p.addStrings("spec", &spec_files,
                 "run a declarative JSON sweep spec file (repeatable)");
    p.addInt("scale", &scale, "workload scale ($DRSIM_SCALE)", 1, kInt);
    p.addInt("max-committed", &max_committed,
             "per-run commit cap, 0 = to completion "
             "($DRSIM_MAX_COMMITTED)",
             0, std::numeric_limits<std::int64_t>::max());
    p.addInt("jobs", &jobs, "worker threads, 0 = auto ($DRSIM_JOBS)", 0,
             kMaxJobs);
    p.addString("sample", &sample,
                "I[:W[:U]] SMARTS-style sampled simulation: "
                "fast-forward through each interval of I instructions, "
                "then warm up U and measure W in detail (W defaults to "
                "max(I/20,1), U to W; $DRSIM_SAMPLE; EXPERIMENTS.md)");
    p.addString("predictor", &predictor,
                "branch-predictor backend applied to every expanded "
                "spec: mcfarling, bimodal, gshare, or tage "
                "($DRSIM_PREDICTOR, else each grid's own setting; "
                "DESIGN.md section 5k)");
    p.addInt("result-buses", &result_buses,
             "result (writeback) buses per cycle, 0 = unlimited "
             "($DRSIM_RESULT_BUSES, else each grid's own setting)",
             0, kInt);
    p.addString("server", &server,
                "HOST:PORT of a `drsim serve` daemon to run via "
                "instead of simulating locally (docs/SERVER.md)");
    p.addString("server-stats", &server_stats,
                "print the daemon's stats reply from HOST:PORT and "
                "exit");

    if (const auto rc = p.parseCommandLine(argc, argv, "drsim bench"))
        return *rc;
    ctx.scale = int(scale);
    if (max_committed != env_cap)
        ctx.maxCommitted = std::uint64_t(max_committed);
    ctx.jobs = int(jobs);
    ctx.resultBuses = int(result_buses);
    if (!sample.empty()) {
        try {
            ctx.sampling = parseSamplingSpec(sample);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "drsim bench: %s\n", e.what());
            return 2;
        }
    }
    if (!predictor.empty()) {
        if (!knownPredictor(predictor)) {
            std::fprintf(stderr,
                         "drsim bench: unknown --predictor '%s' "
                         "(known: %s)\n",
                         predictor.c_str(), predictorSpecList().c_str());
            return 2;
        }
        ctx.predictor = predictor;
    }
    if (!results_dir.empty()) {
        ctx.resultsDir = results_dir;
        std::error_code ec;
        std::filesystem::create_directories(ctx.resultsDir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "drsim bench: cannot create --json directory "
                         "'%s': %s\n",
                         ctx.resultsDir.c_str(), ec.message().c_str());
            return 1;
        }
    }

    if (!server_stats.empty())
        return serve::printServerStats(server_stats);
    if (list) {
        listExperiments();
        return 0;
    }
    if (!server.empty()) {
        // Served runs reproduce the full grid byte for byte; a
        // filtered subset is a local-audit feature (and the daemon
        // sizes its own pool, so --jobs has nothing to apply to).
        if (!filter.empty() || dry_run) {
            std::fprintf(stderr,
                         "drsim bench: --filter/--dry-run cannot be "
                         "combined with --server\n");
            return 2;
        }
        if (ctx.jobs != 0) {
            warn("--jobs is ignored with --server; the daemon's pool "
                 "was sized at its startup (DRSIM_JOBS)");
            ctx.jobs = 0;
        }
    }
    if (names.empty() && spec_files.empty()) {
        if (dry_run) {
            // Dry-run with no names audits every grid experiment.
            for (const ExperimentDef &def : experimentRegistry())
                names.push_back(def.name);
        } else {
            std::fprintf(stderr, "%s", p.helpText("drsim bench").c_str());
            return 2;
        }
    }

    // Resolve every name and spec file before running anything, so a
    // typo in the second one does not waste the first one's sweep.
    std::vector<Target> targets;
    for (const std::string &name : names) {
        const ExperimentDef *def = findExperiment(name);
        if (def == nullptr) {
            std::fprintf(stderr,
                         "drsim bench: unknown experiment '%s' "
                         "(try --list)\n",
                         name.c_str());
            return 2;
        }
        if (def->run && !server.empty()) {
            std::fprintf(stderr,
                         "%s: custom experiments cannot run via "
                         "--server (no grid to serve)\n",
                         name.c_str());
            return 2;
        }
        targets.push_back(
            {*def, server.empty() ? PointRunner{}
                                  : serve::servedPoints(server, ctx, *def)});
    }
    for (const std::string &path : spec_files) {
        const SweepSpec spec = parseSweepSpec(tools::readFile(path));
        ExperimentDef def = specExperiment(spec);
        PointRunner compute =
            server.empty() ? PointRunner{}
                           : serve::servedPoints(server, ctx, def, &spec);
        targets.push_back({std::move(def), std::move(compute)});
    }

    for (const Target &t : targets) {
        const int rc = dry_run ? dryRun(t.def, ctx, filter)
                               : runExperiment(t.def, ctx, filter,
                                               t.compute);
        if (rc != 0)
            return rc;
    }
    return 0;
}
