/**
 * @file
 * `drsim_bench` — the one driver for every registered experiment.
 *
 * Every paper table/figure reproduction, ablation, and extension
 * study lives in the experiment registry (src/exp) and runs by name:
 *
 *   drsim_bench --list                  # what exists
 *   drsim_bench table1 fig7             # run experiments in order
 *   drsim_bench --dry-run fig7          # expanded points, no sims
 *   drsim_bench --filter w4- fig6       # subset of a sweep
 *   drsim_bench --json out/ table1      # artifact directory
 *   drsim_bench --spec sweep.json       # declarative spec file
 *
 * Flags override the corresponding DRSIM_* environment variables
 * (DRSIM_SCALE, DRSIM_MAX_COMMITTED, DRSIM_JOBS, DRSIM_RESULTS_DIR),
 * which all keep working, so existing CI recipes and the thin
 * bench/<name> wrapper binaries behave identically.
 *
 * Exit codes: 0 success, 1 runtime failure, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/micro_benchmarks.hh"
#include "bpred/predictor.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "exp/registry.hh"
#include "exp/spec_file.hh"
#include "serve/client.hh"
#include "sim/runner.hh"

namespace {

using namespace drsim;
using namespace drsim::exp;

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: drsim_bench [options] [experiment...]\n"
        "\n"
        "Run registered paper-reproduction experiments by name.\n"
        "\n"
        "options:\n"
        "  --list              list every registered experiment\n"
        "  --dry-run           print the expanded (config, workload)\n"
        "                      points instead of simulating\n"
        "  --filter STR        run only specs whose name contains STR\n"
        "  --json DIR          write JSON artifacts to DIR\n"
        "                      (default $DRSIM_RESULTS_DIR or .)\n"
        "  --spec FILE         run a declarative JSON sweep spec\n"
        "  --scale N           workload scale (default $DRSIM_SCALE)\n"
        "  --max-committed N   per-run commit cap, 0 = to completion\n"
        "                      (default $DRSIM_MAX_COMMITTED)\n"
        "  --jobs N            worker threads, 0 = auto\n"
        "                      (default $DRSIM_JOBS)\n"
        "  --sample I[:W[:U]]  SMARTS-style sampled simulation:\n"
        "                      fast-forward through each interval of\n"
        "                      I instructions, then warm up U and\n"
        "                      measure W in detail (W defaults to\n"
        "                      max(I/20,1), U to W; default\n"
        "                      $DRSIM_SAMPLE; docs/EXPERIMENTS.md)\n"
        "  --predictor NAME    branch-predictor backend applied to\n"
        "                      every expanded spec: mcfarling,\n"
        "                      bimodal, gshare, or tage (default\n"
        "                      $DRSIM_PREDICTOR, else each grid's\n"
        "                      own setting; DESIGN.md section 5k)\n"
        "  --result-buses N    result (writeback) buses per cycle,\n"
        "                      0 = unlimited (default\n"
        "                      $DRSIM_RESULT_BUSES, else each grid's\n"
        "                      own setting)\n"
        "  --server HOST:PORT  run via a drsim_serve daemon instead\n"
        "                      of simulating locally (docs/SERVER.md)\n"
        "  --server-stats HOST:PORT\n"
        "                      print the daemon's stats reply and exit\n"
        "  --help              this text\n");
}

/** The registry hook for `drsim_bench micro` (the micro suite links
 *  google-benchmark, so it attaches here rather than in the registry
 *  library). */
int
runMicroExperiment(const RunContext &)
{
    char arg0[] = "drsim_bench";
    char *argv[] = {arg0, nullptr};
    return drsim::bench::runMicroBenchmarks(1, argv);
}

void
listExperiments()
{
    std::printf("%-18s %-6s %6s  %s\n", "experiment", "kind",
                "points", "description");
    for (const ExperimentDef &def : experimentRegistry()) {
        if (def.run != nullptr) {
            std::printf("%-18s %-6s %6s  %s\n", def.name, "custom",
                        "-", def.description);
            continue;
        }
        std::size_t points = 0;
        for (const GridDef &grid : def.grids())
            points += gridPoints(grid);
        std::printf("%-18s %-6s %6zu  %s\n", def.name, "grid",
                    points, def.description);
    }
}

int
dryRun(const ExperimentDef &def, const RunContext &ctx,
       const std::string &filter)
{
    if (def.run != nullptr) {
        std::printf("%s: (custom harness; no declarative grid)\n",
                    def.name);
        return 0;
    }
    std::vector<ExperimentSpec> specs = expandExperiment(def, ctx);
    const std::vector<Workload> suite = buildSuite(def, ctx);
    std::size_t shown = 0;
    std::string lines;
    for (const ExperimentSpec &spec : specs) {
        if (!filter.empty() &&
            spec.name.find(filter) == std::string::npos)
            continue;
        for (const Workload &w : suite) {
            lines += "  " + spec.name + " x " + w.spec->name + "  [" +
                     configSummary(spec.config) + "]\n";
        }
        ++shown;
    }
    std::printf("%s: %zu specs x %zu workloads = %zu points\n",
                def.name, shown, suite.size(), shown * suite.size());
    std::fputs(lines.c_str(), stdout);
    if (shown == 0 && !filter.empty()) {
        std::fprintf(stderr,
                     "%s: no spec name contains --filter '%s'\n",
                     def.name, filter.c_str());
        return 1;
    }
    return 0;
}

int
runSpecFilePath(const std::string &path, const RunContext &ctx,
                const std::string &filter, bool dry_run,
                const std::string &server)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "drsim_bench: cannot read spec file "
                             "'%s'\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();

    const SweepSpec spec = parseSweepSpec(text.str());
    if (dry_run) {
        std::vector<ExperimentSpec> specs = expandGrid(toGrid(spec));
        std::printf("%s: %zu specs\n", spec.name.c_str(),
                    specs.size());
        for (const ExperimentSpec &s : specs) {
            std::printf("  %s  [%s]\n", s.name.c_str(),
                        configSummary(s.config).c_str());
        }
        return 0;
    }
    if (!server.empty())
        return serve::runSweepSpecViaServer(spec, ctx, server);
    return runSweepSpec(spec, ctx, filter);
}

} // namespace

int
main(int argc, char **argv)
{
    setExternalRunner("micro", runMicroExperiment);

    RunContext ctx = RunContext::fromEnv();
    bool list = false;
    bool dry_run = false;
    std::string filter;
    std::string server;
    std::string server_stats;
    std::vector<std::string> spec_files;
    std::vector<std::string> names;

    const auto value_of = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "drsim_bench: %s needs a value\n",
                         flag);
            std::exit(2);
        }
        return argv[++i];
    };
    // Integer flags take a whole decimal number in range, so a typo
    // such as "--result-buses abc" or "--scale 2x" is a usage error,
    // never a plausible value (0 = unlimited buses, scale 2).
    const auto int_of = [&](int &i, const char *flag, std::uint64_t lo,
                            std::uint64_t hi) -> std::uint64_t {
        const char *text = value_of(i, flag);
        const std::optional<std::uint64_t> v = parseDecimal(text, lo, hi);
        if (!v.has_value()) {
            std::fprintf(stderr,
                         "drsim_bench: %s expects an integer in "
                         "%llu..%llu, got '%s'\n",
                         flag, static_cast<unsigned long long>(lo),
                         static_cast<unsigned long long>(hi), text);
            std::exit(2);
        }
        return *v;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else if (std::strcmp(arg, "--list") == 0) {
            list = true;
        } else if (std::strcmp(arg, "--dry-run") == 0) {
            dry_run = true;
        } else if (std::strcmp(arg, "--filter") == 0) {
            filter = value_of(i, "--filter");
        } else if (std::strcmp(arg, "--json") == 0) {
            ctx.resultsDir = value_of(i, "--json");
            std::error_code ec;
            std::filesystem::create_directories(ctx.resultsDir, ec);
            if (ec) {
                std::fprintf(stderr,
                             "drsim_bench: cannot create --json "
                             "directory '%s': %s\n",
                             ctx.resultsDir.c_str(),
                             ec.message().c_str());
                return 1;
            }
        } else if (std::strcmp(arg, "--spec") == 0) {
            spec_files.push_back(value_of(i, "--spec"));
        } else if (std::strcmp(arg, "--scale") == 0) {
            ctx.scale = int(int_of(i, "--scale", 1, kIntMax));
        } else if (std::strcmp(arg, "--max-committed") == 0) {
            ctx.maxCommitted =
                int_of(i, "--max-committed", 0,
                       std::numeric_limits<std::uint64_t>::max());
        } else if (std::strcmp(arg, "--jobs") == 0) {
            ctx.jobs = int(int_of(i, "--jobs", 0, kMaxJobs));
        } else if (std::strcmp(arg, "--sample") == 0) {
            try {
                ctx.sampling =
                    parseSamplingSpec(value_of(i, "--sample"));
            } catch (const FatalError &e) {
                std::fprintf(stderr, "drsim_bench: %s\n", e.what());
                return 2;
            }
        } else if (std::strcmp(arg, "--predictor") == 0) {
            ctx.predictor = value_of(i, "--predictor");
            if (!knownPredictor(ctx.predictor)) {
                std::fprintf(stderr,
                             "drsim_bench: unknown --predictor '%s' "
                             "(known: %s)\n",
                             ctx.predictor.c_str(),
                             predictorSpecList().c_str());
                return 2;
            }
        } else if (std::strcmp(arg, "--result-buses") == 0) {
            ctx.resultBuses =
                int(int_of(i, "--result-buses", 0, kIntMax));
        } else if (std::strcmp(arg, "--server") == 0) {
            server = value_of(i, "--server");
        } else if (std::strcmp(arg, "--server-stats") == 0) {
            server_stats = value_of(i, "--server-stats");
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "drsim_bench: unknown option '%s'\n",
                         arg);
            usage(stderr);
            return 2;
        } else {
            names.push_back(arg);
        }
    }

    if (!server_stats.empty()) {
        try {
            return serve::printServerStats(server_stats);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "drsim_bench: %s\n", e.what());
            return 1;
        }
    }
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
                         "drsim_bench: --filter/--dry-run cannot be "
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
            usage(stderr);
            return 2;
        }
    }

    // Resolve every name before running anything, so a typo in the
    // second experiment does not waste the first one's sweep.
    std::vector<const ExperimentDef *> defs;
    for (const std::string &name : names) {
        const ExperimentDef *def = findExperiment(name);
        if (def == nullptr) {
            std::fprintf(stderr,
                         "drsim_bench: unknown experiment '%s' "
                         "(try --list)\n",
                         name.c_str());
            return 2;
        }
        defs.push_back(def);
    }

    try {
        for (const ExperimentDef *def : defs) {
            const int rc =
                dry_run ? dryRun(*def, ctx, filter)
                : !server.empty()
                    ? serve::runExperimentViaServer(*def, ctx, server)
                    : runExperiment(*def, ctx, filter);
            if (rc != 0)
                return rc;
        }
        for (const std::string &path : spec_files) {
            const int rc = runSpecFilePath(path, ctx, filter, dry_run,
                                           server);
            if (rc != 0)
                return rc;
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "drsim_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
