#include "exp/registry.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/env.hh"
#include "common/logging.hh"
#include "core/config_check.hh"
#include "exp/experiments.hh"
#include "workloads/classic.hh"

namespace drsim {
namespace exp {

RunContext
RunContext::fromEnv()
{
    RunContext ctx;
    ctx.scale = envInt("DRSIM_SCALE", kDefaultSuiteScale, 1,
                       std::numeric_limits<int>::max());
    ctx.maxCommitted = envU64("DRSIM_MAX_COMMITTED", 0);
    const char *dir = std::getenv("DRSIM_RESULTS_DIR");
    ctx.resultsDir = dir != nullptr ? dir : ".";
    ctx.sampling = samplingFromEnv();
    const char *pred = std::getenv("DRSIM_PREDICTOR");
    if (pred != nullptr && pred[0] != '\0')
        ctx.predictor = pred;
    ctx.resultBuses = envInt("DRSIM_RESULT_BUSES", -1, -1,
                             std::numeric_limits<int>::max());
    return ctx;
}

SamplingConfig
samplingFromEnv()
{
    const char *sample = std::getenv("DRSIM_SAMPLE");
    if (sample == nullptr || sample[0] == '\0')
        return {};
    return parseSamplingSpec(sample);
}

SamplingConfig
parseSamplingSpec(const std::string &text)
{
    std::uint64_t fields[3] = {0, 0, 0};
    int nfields = 0;
    std::size_t pos = 0;
    bool trailing = false;
    while (nfields < 3) {
        const std::size_t colon = text.find(':', pos);
        const std::string part = text.substr(
            pos, colon == std::string::npos ? std::string::npos
                                            : colon - pos);
        const std::optional<std::uint64_t> field = parseDecimal(
            part.c_str(), 0, std::numeric_limits<std::uint64_t>::max());
        if (!field.has_value()) {
            fatal("bad sampling spec '", text,
                  "': expected INTERVAL[:WINDOW[:WARMUP]] "
                  "with decimal instruction counts");
        }
        fields[nfields++] = *field;
        trailing = colon != std::string::npos;
        if (!trailing)
            break;
        pos = colon + 1;
    }
    if (trailing)
        fatal("bad sampling spec '", text, "': too many fields");

    SamplingConfig sc;
    sc.interval = fields[0];
    if (sc.interval == 0)
        fatal("bad sampling spec '", text, "': interval must be > 0");
    sc.window = nfields >= 2 ? fields[1]
                             : std::max<std::uint64_t>(
                                   sc.interval / 20, 1);
    sc.warmup = nfields >= 3 ? fields[2] : sc.window;
    if (sc.window == 0)
        fatal("bad sampling spec '", text, "': window must be > 0");
    if (!sc.leavesFastForward()) {
        fatal("bad sampling spec '", text, "': interval (",
              sc.interval, ") must exceed warmup + window (",
              sc.warmup, " + ", sc.window, ")");
    }
    return sc;
}

const std::vector<ExperimentDef> &
experimentRegistry()
{
    static const std::vector<ExperimentDef> defs = [] {
        std::vector<ExperimentDef> table = detail::makeExperimentDefs();
        for (ExperimentDef &def : table) {
            if (def.suite)
                def.suiteName = "experiment:" + def.name;
        }
        return table;
    }();
    return defs;
}

const ExperimentDef *
findExperiment(const std::string &name)
{
    for (const ExperimentDef &def : experimentRegistry()) {
        if (name == def.name)
            return &def;
    }
    return nullptr;
}

std::vector<ExperimentSpec>
expandExperiment(const ExperimentDef &def, const RunContext &ctx)
{
    if (!def.grids) {
        fatal("experiment '", def.name,
              "' is a custom harness; it has no declarative grid");
    }
    std::vector<ExperimentSpec> specs = expandGrids(def.grids());
    for (ExperimentSpec &spec : specs) {
        spec.config.maxCommitted = ctx.maxCommitted;
        spec.config.sampling = ctx.sampling;
        // Overrides apply only when set so experiments whose grids
        // sweep these axes (ext_predictors) are not clobbered.
        if (!ctx.predictor.empty())
            spec.config.predictor = ctx.predictor;
        if (ctx.resultBuses >= 0)
            spec.config.resultBuses = ctx.resultBuses;
        // Screen each point before anything simulates: an infeasible
        // config should reject the sweep at expansion time, not
        // fatal() mid-run.
        requireFeasibleConfig(spec.config, def.name + "/" + spec.name);
    }
    return specs;
}

std::vector<Workload>
buildSuite(const ExperimentDef &def, const RunContext &ctx)
{
    return def.suite ? def.suite(ctx) : buildSpec92Suite(ctx.scale);
}

int
runExperiment(const ExperimentDef &def, const RunContext &ctx,
              const std::string &filter, const PointRunner &compute)
{
    if (def.run) {
        if (!filter.empty()) {
            warn("--filter has no effect on custom experiment '",
                 def.name, "'");
        }
        return def.run(ctx);
    }

    banner(def.title.c_str());
    std::vector<ExperimentSpec> specs = expandExperiment(def, ctx);
    const std::size_t full = specs.size();
    if (!filter.empty()) {
        std::erase_if(specs, [&filter](const ExperimentSpec &spec) {
            return spec.name.find(filter) == std::string::npos;
        });
        if (specs.empty()) {
            std::fprintf(stderr,
                         "%s: no spec name contains --filter '%s'\n",
                         def.name.c_str(), filter.c_str());
            return 1;
        }
        std::printf("\nrunning %zu of %zu specs matching --filter "
                    "'%s'\n",
                    specs.size(), full, filter.c_str());
    }

    const std::vector<Workload> suite = buildSuite(def, ctx);
    const std::vector<ExperimentResult> results =
        compute ? compute(specs, suite)
                : runExperiments(specs, suite, ctx.jobs);

    if (!filter.empty()) {
        // The curated printers index the full grid positionally, so a
        // subset gets the generic summary instead (and no artifact —
        // a filtered run is an audit, not a reproduction).
        printGenericSummary(results);
        printStallSummary(results);
        return 0;
    }
    def.print(ctx, results);
    if (def.exportResults)
        emitResults(def.name.c_str(), ctx, results);
    return 0;
}

CoreConfig
paperConfig(int issue_width, int num_regs, ExceptionModel model,
            CacheKind cache)
{
    CoreConfig cfg;
    cfg.issueWidth = issue_width;
    cfg.dqSize = issue_width == 4 ? 32 : 64;
    cfg.numPhysRegs = num_regs;
    cfg.exceptionModel = model;
    cfg.cacheKind = cache;
    return cfg;
}

void
banner(const char *title)
{
    std::printf("\n================================================="
                "=============\n%s\n"
                "=================================================="
                "============\n",
                title);
}

void
printStallSummary(const std::vector<ExperimentResult> &results)
{
    std::printf("\n---- stall-cause breakdown (avg %% of cycles) "
                "----\n");
    std::printf("%-24s", "cause");
    for (const auto &res : results)
        std::printf(" %12.12s", res.spec.name.c_str());
    std::printf("\n");
    for (int c = 0; c < kNumCycleCauses; ++c) {
        bool fired = false;
        for (const auto &res : results)
            for (const auto &r : res.suite.runs())
                fired = fired ||
                        r.proc.cycleCauseCount(CycleCause(c)) > 0;
        if (!fired)
            continue;
        std::printf("%-24s", cycleCauseName(CycleCause(c)));
        for (const auto &res : results)
            std::printf(" %11.2f%%",
                        res.suite.avgCausePct(CycleCause(c)));
        std::printf("\n");
    }
}

void
emitResults(const char *id, const RunContext &ctx,
            const std::vector<ExperimentResult> &results)
{
    const std::string path =
        ctx.resultsDir + "/" + id + "_results.json";
    RunInfo info;
    info.runId = id;
    info.scale = ctx.scale;
    info.maxCommitted = ctx.maxCommitted;
    try {
        writeResultsFile(path, info, results);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", id, e.what());
        std::exit(1);
    }
    std::printf("\n[%s] wrote JSON results to %s\n", id, path.c_str());
}

void
printGenericSummary(const std::vector<ExperimentResult> &results)
{
    std::printf("\n%-32s %7s %7s %8s %10s\n", "spec", "issIPC",
                "cmtIPC", "stall%", "nofree%");
    for (const ExperimentResult &er : results) {
        std::printf("%-32s %7.2f %7.2f %7.1f%% %9.1f%%\n",
                    er.spec.name.c_str(), er.suite.avgIssueIpc(),
                    er.suite.avgCommitIpc(), er.suite.avgStallPct(),
                    er.suite.avgNoFreeRegPct());
    }
}

std::vector<Workload>
classicWorkloads()
{
    auto classic = buildClassicSuite();
    // Workloads reference their WorkloadSpec by pointer, so the specs
    // need storage that outlives the returned suite.
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> s;
        for (const auto &[name, prog] : buildClassicSuite())
            s.push_back({name, "", false, nullptr});
        return s;
    }();
    std::vector<Workload> suite;
    for (std::size_t i = 0; i < classic.size(); ++i)
        suite.push_back({&specs[i], std::move(classic[i].second)});
    return suite;
}

std::string
configSummary(const CoreConfig &cfg)
{
    std::string s = "width=" + std::to_string(cfg.issueWidth) +
                    " dq=" + std::to_string(cfg.dqSize) +
                    " regs=" + std::to_string(cfg.numPhysRegs) +
                    " model=" +
                    exceptionModelName(cfg.exceptionModel) +
                    " cache=" + cacheKindName(cfg.cacheKind);
    if (cfg.dcache.maxOutstandingMisses != 0) {
        s += " mshrs=" +
             std::to_string(cfg.dcache.maxOutstandingMisses);
    }
    if (cfg.dcache.writeBufferEntries != 0) {
        s += " wbuf=" + std::to_string(cfg.dcache.writeBufferEntries) +
             " drain=" +
             std::to_string(cfg.dcache.writeBufferDrainCycles);
    }
    if (cfg.predictor != "mcfarling")
        s += " bpred=" + cfg.predictor;
    if (cfg.resultBuses != 0)
        s += " buses=" + std::to_string(cfg.resultBuses);
    if (cfg.inOrderBranches)
        s += " in-order-branches";
    if (!cfg.speculativeHistoryUpdate)
        s += " execute-time-history";
    if (!cfg.storeToLoadForwarding)
        s += " no-forwarding";
    if (cfg.splitDispatchQueues)
        s += " split-queues";
    if (cfg.sampling.enabled()) {
        s += " sample=" + std::to_string(cfg.sampling.interval) + ":" +
             std::to_string(cfg.sampling.window) + ":" +
             std::to_string(cfg.sampling.warmup);
    }
    return s;
}

} // namespace exp
} // namespace drsim
