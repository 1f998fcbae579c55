/**
 * @file
 * `drsim report` — render the stall-cause breakdown of a results file.
 *
 *   drsim report results.json            # table per experiment
 *   drsim report --check results.json    # validate only, no table
 *
 * Consumes the schema-v2 JSON written by writeResultsFile() (see
 * docs/RESULTS_SCHEMA.md) through the strict in-repo parser, so it
 * doubles as an end-to-end validator of the exporter: it re-checks the
 * attribution invariant
 *
 *   busy_cycles + issue_width_bound_cycles + sum(stall_cycles.*)
 *       == cycles
 *
 * for every workload and exits nonzero on a parse error, a schema
 * mismatch, or an invariant violation.
 *
 * The stall taxonomy is additive within schema v2: this tool never
 * hardcodes the bucket list.  It renders whatever cause names the
 * artifact carries (so a file from a newer simulator with buckets
 * this build has never heard of — e.g. result_bus — still checks and
 * prints), and the invariant sums exactly the buckets present.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/options.hh"
#include "tools/verbs.hh"

namespace {

using namespace drsim;

/** Columns of the report: a label and its cycle count. */
struct CauseRow
{
    std::string name;
    std::uint64_t cycles = 0;
};

/**
 * Check one workload object and collect its rows.  Returns the total
 * attributed cycle count (which must equal "cycles").
 */
std::uint64_t
collectRows(const json::Value &wl, std::vector<CauseRow> *rows)
{
    rows->clear();
    rows->push_back({"busy", wl.at("busy_cycles").asU64()});
    rows->push_back({"issue_width_bound",
                     wl.at("issue_width_bound_cycles").asU64()});
    std::uint64_t attributed =
        (*rows)[0].cycles + (*rows)[1].cycles;
    for (const auto &[name, value] : wl.at("stall_cycles").members()) {
        rows->push_back({name, value.asU64()});
        attributed += value.asU64();
    }
    return attributed;
}

void
printWorkload(const json::Value &wl, const std::vector<CauseRow> &rows)
{
    const std::uint64_t cycles = wl.at("cycles").asU64();
    std::printf("  %-12s %12llu cycles\n",
                wl.at("name").asString().c_str(),
                (unsigned long long)cycles);
    for (const auto &row : rows) {
        if (row.cycles == 0)
            continue; // keep the table to the causes that fired
        const double pct =
            cycles ? 100.0 * double(row.cycles) / double(cycles) : 0.0;
        std::printf("    %-20s %12llu  %6.2f%%\n", row.name.c_str(),
                    (unsigned long long)row.cycles, pct);
    }
}

int
run(const std::string &path, bool check_only)
{
    const json::Value doc = json::parse(tools::readFile(path));

    const std::uint64_t version = doc.at("schema_version").asU64();
    if (version != 2)
        fatal("'", path, "' has schema_version ", version,
              "; drsim report requires schema_version 2");

    int violations = 0;
    std::vector<CauseRow> rows;
    for (const auto &exp : doc.at("experiments").items()) {
        if (!check_only)
            std::printf("experiment %s\n",
                        exp.at("name").asString().c_str());
        for (const auto &wl : exp.at("workloads").items()) {
            const std::uint64_t cycles = wl.at("cycles").asU64();
            const std::uint64_t attributed = collectRows(wl, &rows);
            if (attributed != cycles) {
                std::fprintf(stderr,
                             "drsim report: %s/%s: attributed %llu "
                             "cycles but ran %llu\n",
                             exp.at("name").asString().c_str(),
                             wl.at("name").asString().c_str(),
                             (unsigned long long)attributed,
                             (unsigned long long)cycles);
                ++violations;
                continue;
            }
            if (!check_only)
                printWorkload(wl, rows);
        }
    }
    if (violations) {
        std::fprintf(stderr, "drsim report: %d invariant violation%s\n",
                     violations, violations == 1 ? "" : "s");
        return 1;
    }
    if (check_only)
        std::printf("%s: ok\n", path.c_str());
    return 0;
}

} // namespace

std::string
drsim::tools::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '", path, "' for reading");
    std::ostringstream os;
    os << in.rdbuf();
    if (!in.good() && !in.eof())
        fatal("failed reading '", path, "'");
    return os.str();
}

int
drsim::tools::reportVerb(int argc, const char *const *argv)
{
    bool check_only = false;
    std::vector<std::string> paths;
    OptionParser p;
    p.allowPositionals(&paths, "RESULTS.json");
    p.addFlag("check", &check_only, "validate only, no table");
    if (const auto rc = p.parseCommandLine(argc, argv, "drsim report"))
        return *rc;
    if (paths.size() != 1) {
        std::fprintf(stderr, "drsim report: expected one results file, "
                             "got %zu\n%s",
                     paths.size(), p.helpText("drsim report").c_str());
        return 2;
    }
    return run(paths[0], check_only);
}
