/**
 * @file
 * `drsim lint` — static verifier / linter front-end for guest programs.
 *
 * Runs every src/analysis pass over the selected workloads and prints
 * the findings, one per line, in the compiler-diagnostic style:
 *
 *   drsim lint                          # lint all nine suite kernels
 *   drsim lint --workload compress,gcc1 # a subset
 *   drsim lint --workload classic       # the classic mini-suite
 *   drsim lint --json > lint.json       # machine-readable output
 *   drsim lint --print-mix              # estimator-space mix table
 *   drsim lint --bounds                 # static dataflow bounds too
 *
 * Exit status: 0 when no error-severity findings (warnings allowed;
 * `--strict` promotes them), 1 when any selected program has an
 * error-severity finding, 2 on usage errors.  The JSON envelope
 * carries the code in its "exit" member; in `--json` mode even a
 * FatalError (exit 2) still emits a well-formed envelope (with a
 * "fatal" message and errors >= 1) on stdout before exiting, so
 * pipelines can always parse the output.
 *
 * JSON schema (strict RFC-8259, round-trips through json::parse):
 *   {"schema":"drsim-lint-v1","errors":N,"warnings":N,"exit":0|1|2,
 *    "reports":[{"schema":"drsim-lint-v1","program":"compress",
 *                "errors":N,"warnings":N,
 *                "findings":[{"rule":"mem-oob-access",
 *                             "severity":"error","block":3,
 *                             "offset":2,"pc":4184,
 *                             "message":"..."}]}],
 *    "bounds":[...]}            // --bounds only: drsim-bounds-v1
 *                               // objects (see RESULTS_SCHEMA.md)
 */

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/bounds.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/options.hh"
#include "tools/verbs.hh"
#include "workloads/classic.hh"
#include "workloads/kernels.hh"

namespace {

using namespace drsim;

struct Target
{
    std::string name;
    Program program;
};

std::vector<Target>
resolveTargets(const std::string &selector, int scale,
               std::uint64_t seed)
{
    std::vector<Target> targets;
    std::istringstream names(selector);
    for (std::string name; std::getline(names, name, ',');) {
        if (name == "all") {
            for (auto &w : buildSpec92Suite(scale, seed)) {
                targets.push_back(
                    {w.spec->name, std::move(w.program)});
            }
        } else if (name == "classic") {
            for (auto &[n, prog] : buildClassicSuite())
                targets.push_back({"classic:" + n, std::move(prog)});
        } else if (!name.empty()) {
            targets.push_back(
                {name, tools::namedProgram(name, scale, seed)});
        }
    }
    return targets;
}

/** The --json envelope, open for its "fatal" and "reports" members. */
json::Writer
openEnvelope(std::size_t errors, std::size_t warnings, int exit_code)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").value("drsim-lint-v1");
    w.key("errors").value(errors);
    w.key("warnings").value(warnings);
    w.key("exit").value(exit_code);
    return w;
}

} // namespace

int
drsim::tools::lintVerb(int argc, const char *const *argv)
{
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();

    std::string workload = "all";
    std::int64_t scale = kDefaultSuiteScale;
    std::int64_t seed = 0;
    std::int64_t mix_tolerance_tenths = 30;
    std::int64_t width = 4;
    bool json = false;
    bool strict = false;
    bool no_mix = false;
    bool print_mix = false;
    bool bounds = false;

    OptionParser p;
    p.addString("workload", &workload,
                "comma-separated kernels; 'all' = the nine-kernel "
                "suite, 'classic' / 'classic:<name>' = mini-suite");
    p.addInt("scale", &scale, "workload scale (~10k insts per unit)",
             1, kInt);
    p.addInt("seed", &seed, "data seed (0 = kernel default)", 0,
             std::numeric_limits<std::int64_t>::max());
    p.addFlag("json", &json, "emit one machine-readable JSON object");
    p.addFlag("strict", &strict,
              "exit non-zero on warnings as well as errors");
    p.addFlag("no-mix", &no_mix,
              "skip the instruction-mix drift rule");
    p.addInt("mix-tolerance", &mix_tolerance_tenths,
             "mix drift tolerance in tenths of a percentage point");
    p.addFlag("print-mix", &print_mix,
              "print each program's estimator-space mix (for "
              "recalibrating the targets in src/analysis/mix.cc)");
    p.addFlag("bounds", &bounds,
              "report static dataflow bounds (MaxLive, IPC upper "
              "bound, live-range lengths) per program");
    p.addInt("width", &width,
             "issue width the --bounds machine limits assume (4 or 8)",
             0, kInt);

    if (const auto rc = p.parseCommandLine(argc, argv, "drsim lint"))
        return *rc;

    try {
        analysis::Options opts;
        opts.checkMix = !no_mix;
        opts.mixTolerancePct = double(mix_tolerance_tenths) / 10.0;

        const std::vector<Target> targets =
            resolveTargets(workload, int(scale), std::uint64_t(seed));
        if (targets.empty())
            fatal("no workloads selected");

        if (print_mix) {
            std::printf("%-18s %7s %7s %7s %7s\n", "program", "load%",
                        "store%", "cbr%", "fp%");
            for (const Target &t : targets) {
                const analysis::MixEstimate est =
                    analysis::estimateMix(t.program);
                std::printf("%-18s %7.1f %7.1f %7.1f %7.1f\n",
                            t.name.c_str(), est.loadPct, est.storePct,
                            est.condBranchPct, est.fpPct);
            }
            return 0;
        }

        if (width != 4 && width != 8)
            fatal("--width must be 4 or 8 (got ", width, ")");
        const analysis::MachineLimits limits =
            analysis::MachineLimits::forIssueWidth(int(width));

        std::size_t errors = 0, warnings = 0;
        std::vector<analysis::Report> reports;
        std::vector<analysis::BoundsReport> bound_reports;
        for (const Target &t : targets) {
            const analysis::Report &report = reports.emplace_back(
                analysis::analyzeProgram(t.program, opts));
            errors += report.count(analysis::Severity::Error);
            warnings += report.count(analysis::Severity::Warning);
            if (bounds)
                bound_reports.push_back(
                    analysis::computeBounds(t.program, limits));
            if (json)
                continue;
            for (const analysis::Finding &f : report.findings) {
                std::printf("%s: %s\n", t.name.c_str(),
                            analysis::formatFinding(f).c_str());
            }
            std::printf("%s: %s\n", t.name.c_str(),
                        report.summary().c_str());
            if (bounds)
                std::printf("%s", analysis::formatBounds(
                                      bound_reports.back()).c_str());
        }
        const int exit_code =
            errors > 0 || (strict && warnings > 0) ? 1 : 0;
        if (json) {
            json::Writer w = openEnvelope(errors, warnings, exit_code);
            w.key("reports").beginArray();
            for (const analysis::Report &r : reports)
                analysis::writeReport(w, r);
            w.endArray();
            if (bounds) {
                w.key("bounds").beginArray();
                for (const analysis::BoundsReport &br : bound_reports)
                    analysis::writeBounds(w, br);
                w.endArray();
            }
            std::printf("%s\n", w.endObject().str().c_str());
        }
        return exit_code;
    } catch (const FatalError &e) {
        // In --json mode the contract is "stdout always carries one
        // parseable envelope", even when target resolution or an
        // analysis gate throws before any report was serialized.
        if (json) {
            json::Writer w = openEnvelope(1, 0, 2);
            w.key("fatal").value(e.what());
            w.key("reports").beginArray().endArray();
            std::printf("%s\n", w.endObject().str().c_str());
        }
        std::fprintf(stderr, "drsim lint: %s\n", e.what());
        return 2;
    }
}
