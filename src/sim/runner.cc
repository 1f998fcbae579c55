#include "sim/runner.hh"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace drsim {

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    std::uint64_t v = 0;
    switch (envParseU64("DRSIM_JOBS", v)) {
      case EnvStatus::Unset:
        break;
      case EnvStatus::Malformed:
        warn("ignoring invalid DRSIM_JOBS='",
             std::getenv("DRSIM_JOBS"), "'");
        break;
      case EnvStatus::Ok:
        if (v > std::uint64_t(kMaxJobs)) {
            // Beyond any sane pool size (envParseU64 saturates on
            // overflow); clamp loudly instead of silently truncating.
            warn("DRSIM_JOBS='", std::getenv("DRSIM_JOBS"),
                 "' out of range; clamping to ", kMaxJobs);
            return kMaxJobs;
        }
        if (v == 0)
            return ThreadPool::hardwareJobs(); // explicit auto-detect
        return int(v);
    }
    return ThreadPool::hardwareJobs();
}

SuiteResult
runSuite(const CoreConfig &config, const std::vector<Workload> &suite,
         int jobs)
{
    jobs = resolveJobs(jobs);
    if (jobs == 1 || suite.size() <= 1)
        return runSuite(config, suite); // legacy serial path

    std::vector<SimResult> runs(suite.size());
    ThreadPool pool(jobs);
    pool.parallelFor(suite.size(), [&](std::size_t i) {
        runs[i] = simulate(config, suite[i]);
    });
    return SuiteResult(std::move(runs));
}

std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentSpec> &specs,
               const std::vector<Workload> &suite, int jobs)
{
    if (specs.empty())
        fatal("runExperiments needs at least one spec");
    jobs = resolveJobs(jobs);

    // One flat (spec, workload) task grid so small sweeps still fill
    // every worker; slot (s, w) is written by exactly one task.
    std::vector<std::vector<SimResult>> grid(
        specs.size(), std::vector<SimResult>(suite.size()));
    const std::size_t total = specs.size() * suite.size();
    const auto runCell = [&](std::size_t flat) {
        const std::size_t s = flat / suite.size();
        const std::size_t w = flat % suite.size();
        grid[s][w] = simulate(specs[s].config, suite[w]);
    };
    if (jobs == 1 || total <= 1) {
        for (std::size_t flat = 0; flat < total; ++flat)
            runCell(flat);
    } else {
        ThreadPool pool(jobs);
        pool.parallelFor(total, runCell);
    }

    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s)
        results.push_back({specs[s], SuiteResult(std::move(grid[s]))});
    return results;
}

namespace {

/** Minimal JSON emitter: deterministic, shortest-round-trip doubles. */
class JsonOut
{
  public:
    explicit JsonOut(std::ostream &os) : os_(os) {}

    void
    string(const std::string &s)
    {
        os_ << '"' << json::escape(s) << '"';
    }

    void
    number(double v)
    {
        // std::to_chars emits the shortest string that round-trips,
        // locale-independent — the determinism the schema promises.
        char buf[64];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        os_.write(buf, res.ptr - buf);
    }

    void number(std::uint64_t v) { os_ << v; }
    void number(int v) { os_ << v; }
    void boolean(bool v) { os_ << (v ? "true" : "false"); }
    void null() { os_ << "null"; }

    /** A ratio whose denominator may be zero: null when undefined,
     *  so downstream tooling cannot mistake "no samples" for 0.0. */
    void
    ratio(double v, bool defined)
    {
        if (defined)
            number(v);
        else
            null();
    }

    void raw(const char *s) { os_ << s; }

    /** "key": prefix at the current indent. */
    void
    key(int indent, const char *name)
    {
        pad(indent);
        os_ << '"' << name << "\": ";
    }

    void
    pad(int indent)
    {
        for (int i = 0; i < indent; ++i)
            os_ << ' ';
    }

  private:
    std::ostream &os_;
};

/** {"mean": .., "p90": .., "max": ..} for one occupancy histogram. */
void
emitOccupancy(JsonOut &j, const Histogram &h, int in)
{
    j.raw("{\n");
    j.key(in + 2, "mean"); j.number(h.mean()); j.raw(",\n");
    j.key(in + 2, "p90"); j.number(h.percentile(0.90)); j.raw(",\n");
    j.key(in + 2, "max"); j.number(h.maxValue()); j.raw("\n");
    j.pad(in); j.raw("}");
}

void
emitWorkload(JsonOut &j, const SimResult &r, int in)
{
    const bool ran = r.proc.cycles > 0;
    j.pad(in); j.raw("{\n");
    j.key(in + 2, "name"); j.string(r.workload); j.raw(",\n");
    j.key(in + 2, "fp_intensive"); j.boolean(r.fpIntensive);
    j.raw(",\n");
    j.key(in + 2, "stop_reason");
    j.string(stopReasonName(r.stopReason)); j.raw(",\n");
    j.key(in + 2, "cycles"); j.number(std::uint64_t(r.proc.cycles));
    j.raw(",\n");
    j.key(in + 2, "committed"); j.number(r.proc.committed);
    j.raw(",\n");
    j.key(in + 2, "executed"); j.number(r.proc.executed); j.raw(",\n");
    j.key(in + 2, "executed_loads"); j.number(r.proc.executedLoads);
    j.raw(",\n");
    j.key(in + 2, "executed_cond_branches");
    j.number(r.proc.executedCondBranches); j.raw(",\n");
    j.key(in + 2, "issue_ipc"); j.ratio(r.issueIpc(), ran);
    j.raw(",\n");
    j.key(in + 2, "commit_ipc"); j.ratio(r.commitIpc(), ran);
    j.raw(",\n");
    // Sampled-mode estimate (schema v2, additive: only present when
    // the run used interval sampling, so full-detail artifacts stay
    // byte-identical).
    if (r.sampled.enabled) {
        j.key(in + 2, "ipc_estimate");
        j.number(r.sampled.ipcEstimate); j.raw(",\n");
        j.key(in + 2, "ci95"); j.number(r.sampled.ci95); j.raw(",\n");
        j.key(in + 2, "windows"); j.number(r.sampled.windows);
        j.raw(",\n");
        j.key(in + 2, "fast_forwarded");
        j.number(r.sampled.fastForwarded); j.raw(",\n");
    }
    j.key(in + 2, "load_miss_rate");
    j.ratio(r.loadMissRate, r.proc.executedLoads > 0); j.raw(",\n");
    j.key(in + 2, "mispredict_rate");
    j.ratio(r.mispredictRate(), r.proc.executedCondBranches > 0);
    j.raw(",\n");
    j.key(in + 2, "no_free_reg_pct"); j.ratio(r.noFreeRegPct(), ran);
    j.raw(",\n");

    // Exclusive per-cycle attribution (schema v2): busy_cycles +
    // issue_width_bound_cycles + sum(stall_cycles.*) == cycles.
    j.key(in + 2, "busy_cycles");
    j.number(r.proc.cycleCauseCount(CycleCause::Busy)); j.raw(",\n");
    j.key(in + 2, "issue_width_bound_cycles");
    j.number(r.proc.cycleCauseCount(CycleCause::IssueWidthBound));
    j.raw(",\n");
    j.key(in + 2, "stall_cycles"); j.raw("{\n");
    // The result_bus bucket (schema v2, additive) is omitted when no
    // cycle was attributed to it, keeping unlimited-bus artifacts
    // byte-identical to the pre-bucket schema.
    std::vector<int> emitted;
    for (int c = int(CycleCause::WriteBufferFull);
         c < kNumCycleCauses; ++c) {
        if (CycleCause(c) == CycleCause::ResultBus &&
            r.proc.causeCycles[c] == 0) {
            continue;
        }
        emitted.push_back(c);
    }
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        const int c = emitted[i];
        j.key(in + 4, cycleCauseName(CycleCause(c)));
        j.number(r.proc.causeCycles[c]);
        j.raw(i + 1 < emitted.size() ? ",\n" : "\n");
    }
    j.pad(in + 2); j.raw("}");

    // Structure-occupancy summaries; present only when the run sampled
    // them (collectOccupancyHistograms).
    if (r.proc.dqDepth.totalSamples() > 0) {
        j.raw(",\n");
        j.key(in + 2, "occupancy"); j.raw("{\n");
        j.key(in + 4, "dispatch_queue");
        emitOccupancy(j, r.proc.dqDepth, in + 4); j.raw(",\n");
        j.key(in + 4, "window");
        emitOccupancy(j, r.proc.windowDepth, in + 4); j.raw(",\n");
        j.key(in + 4, "store_queue");
        emitOccupancy(j, r.proc.storeQueueDepth, in + 4); j.raw("\n");
        j.pad(in + 2); j.raw("}");
    }
    j.raw("\n");
    j.pad(in); j.raw("}");
}

void
emitLivePercentiles(JsonOut &j, const SuiteResult &suite, RegClass cls,
                    int in)
{
    static const struct { const char *name; LiveLevel level; } kLevels[] = {
        {"in_flight", LiveLevel::InFlight},
        {"plus_queue", LiveLevel::PlusQueue},
        {"imprecise", LiveLevel::ImpreciseLive},
        {"precise", LiveLevel::PreciseLive},
    };
    j.raw("{\n");
    for (std::size_t i = 0; i < 4; ++i) {
        j.key(in + 2, kLevels[i].name);
        j.number(suite.livePercentile(cls, kLevels[i].level, 0.90));
        j.raw(i + 1 < 4 ? ",\n" : "\n");
    }
    j.pad(in); j.raw("}");
}

void
emitExperiment(JsonOut &j, const ExperimentResult &res, int in)
{
    const CoreConfig &cfg = res.spec.config;
    j.pad(in); j.raw("{\n");
    j.key(in + 2, "name"); j.string(res.spec.name); j.raw(",\n");

    j.key(in + 2, "config"); j.raw("{\n");
    j.key(in + 4, "issue_width"); j.number(cfg.issueWidth); j.raw(",\n");
    j.key(in + 4, "dq_size"); j.number(cfg.dqSize); j.raw(",\n");
    j.key(in + 4, "num_phys_regs"); j.number(cfg.numPhysRegs);
    j.raw(",\n");
    j.key(in + 4, "exception_model");
    j.string(exceptionModelName(cfg.exceptionModel)); j.raw(",\n");
    j.key(in + 4, "cache_kind"); j.string(cacheKindName(cfg.cacheKind));
    j.raw(",\n");
    j.key(in + 4, "max_committed"); j.number(cfg.maxCommitted);
    // Non-default predictor / result-bus settings only (schema v2,
    // additive: default-config artifacts stay byte-identical).
    if (cfg.predictor != "mcfarling") {
        j.raw(",\n");
        j.key(in + 4, "predictor"); j.string(cfg.predictor);
    }
    if (cfg.resultBuses != 0) {
        j.raw(",\n");
        j.key(in + 4, "result_buses"); j.number(cfg.resultBuses);
    }
    if (cfg.sampling.enabled()) {
        j.raw(",\n");
        j.key(in + 4, "sampling"); j.raw("{\n");
        j.key(in + 6, "interval"); j.number(cfg.sampling.interval);
        j.raw(",\n");
        j.key(in + 6, "window"); j.number(cfg.sampling.window);
        j.raw(",\n");
        j.key(in + 6, "warmup"); j.number(cfg.sampling.warmup);
        j.raw(",\n");
        j.key(in + 6, "warmff"); j.number(cfg.sampling.warmff);
        j.raw("\n");
        j.pad(in + 4); j.raw("}");
    }
    j.raw("\n");
    j.pad(in + 2); j.raw("},\n");

    j.key(in + 2, "workloads"); j.raw("[\n");
    const auto &runs = res.suite.runs();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        emitWorkload(j, runs[i], in + 4);
        j.raw(i + 1 < runs.size() ? ",\n" : "\n");
    }
    j.pad(in + 2); j.raw("],\n");

    bool any_fp = false;
    bool any_live = false;
    for (const auto &r : runs) {
        any_fp = any_fp || r.fpIntensive;
        any_live = any_live ||
                   r.proc.live[int(RegClass::Int)]
                             [int(LiveLevel::PreciseLive)]
                                 .totalSamples() > 0;
    }

    j.key(in + 2, "summary"); j.raw("{\n");
    j.key(in + 4, "avg_issue_ipc"); j.number(res.suite.avgIssueIpc());
    j.raw(",\n");
    j.key(in + 4, "avg_commit_ipc"); j.number(res.suite.avgCommitIpc());
    j.raw(",\n");
    j.key(in + 4, "avg_no_free_reg_pct");
    j.number(res.suite.avgNoFreeRegPct()); j.raw(",\n");
    j.key(in + 4, "avg_stall_pct");
    j.number(res.suite.avgStallPct());
    if (any_live) {
        j.raw(",\n");
        j.key(in + 4, "live_p90"); j.raw("{\n");
        j.key(in + 6, "int");
        emitLivePercentiles(j, res.suite, RegClass::Int, in + 6);
        if (any_fp) {
            j.raw(",\n");
            j.key(in + 6, "fp");
            emitLivePercentiles(j, res.suite, RegClass::Fp, in + 6);
        }
        j.raw("\n");
        j.pad(in + 4); j.raw("}");
    }
    j.raw("\n");
    j.pad(in + 2); j.raw("}\n");
    j.pad(in); j.raw("}");
}

} // namespace

std::string
resultsJson(const RunInfo &info,
            const std::vector<ExperimentResult> &results)
{
    if (results.empty())
        fatal("resultsJson needs at least one experiment");
    std::ostringstream os;
    JsonOut j(os);

    j.raw("{\n");
    j.key(2, "schema_version"); j.number(2); j.raw(",\n");
    j.key(2, "run_id"); j.string(info.runId); j.raw(",\n");

    j.key(2, "suite"); j.raw("{\n");
    j.key(4, "scale"); j.number(info.scale); j.raw(",\n");
    j.key(4, "max_committed"); j.number(info.maxCommitted); j.raw(",\n");
    j.key(4, "workloads"); j.raw("[");
    const auto &runs = results.front().suite.runs();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        j.string(runs[i].workload);
        if (i + 1 < runs.size())
            j.raw(", ");
    }
    j.raw("]\n");
    j.pad(2); j.raw("},\n");

    j.key(2, "experiments"); j.raw("[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        emitExperiment(j, results[i], 4);
        j.raw(i + 1 < results.size() ? ",\n" : "\n");
    }
    j.pad(2); j.raw("]\n");
    j.raw("}\n");
    return os.str();
}

void
writeResultsFile(const std::string &path, const RunInfo &info,
                 const std::vector<ExperimentResult> &results)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open results file '", path, "' for writing");
    out << resultsJson(info, results);
    out.flush();
    if (!out)
        fatal("failed writing results file '", path, "'");
}

namespace {

/** Wall-clock divisions never see a zero denominator. */
double
clampSeconds(double s)
{
    return s > 1e-9 ? s : 1e-9;
}

double
mips(std::uint64_t committed, double seconds)
{
    return double(committed) / clampSeconds(seconds) / 1e6;
}

void
emitSpeedLeg(JsonOut &j, std::uint64_t committed, double seconds,
             int in)
{
    j.raw("{\n");
    j.key(in + 2, "seconds"); j.number(seconds); j.raw(",\n");
    j.key(in + 2, "mips"); j.number(mips(committed, seconds));
    j.raw("\n");
    j.pad(in); j.raw("}");
}

void
emitPhaseSeconds(JsonOut &j, const SampledPhaseSeconds &p, int in)
{
    j.raw("{\n");
    j.key(in + 2, "seconds"); j.number(p.total); j.raw(",\n");
    j.key(in + 2, "acquire_seconds"); j.number(p.acquire);
    j.raw(",\n");
    j.key(in + 2, "warmup_seconds"); j.number(p.warmup); j.raw(",\n");
    j.key(in + 2, "window_seconds"); j.number(p.window); j.raw("\n");
    j.pad(in); j.raw("}");
}

} // namespace

std::string
simspeedJson(const SpeedRunInfo &info,
             const std::vector<SpeedSample> &samples)
{
    if (samples.empty())
        fatal("simspeedJson needs at least one sample");
    std::ostringstream os;
    JsonOut j(os);

    j.raw("{\n");
    j.key(2, "schema"); j.string("simspeed-v1"); j.raw(",\n");
    j.key(2, "scale"); j.number(info.scale); j.raw(",\n");
    j.key(2, "max_committed"); j.number(info.maxCommitted);
    j.raw(",\n");
    j.key(2, "reps"); j.number(info.reps); j.raw(",\n");
    j.key(2, "issue_width"); j.number(info.issueWidth); j.raw(",\n");
    j.key(2, "num_phys_regs"); j.number(info.numPhysRegs);
    j.raw(",\n");

    std::uint64_t committed = 0;
    double scan_s = 0.0;
    double event_s = 0.0;
    j.key(2, "workloads"); j.raw("[\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const SpeedSample &s = samples[i];
        committed += s.committed;
        scan_s += s.scanSeconds;
        event_s += s.eventSeconds;
        j.pad(4); j.raw("{\n");
        j.key(6, "name"); j.string(s.workload); j.raw(",\n");
        j.key(6, "committed"); j.number(s.committed); j.raw(",\n");
        j.key(6, "cycles"); j.number(s.cycles); j.raw(",\n");
        j.key(6, "scan");
        emitSpeedLeg(j, s.committed, s.scanSeconds, 6); j.raw(",\n");
        j.key(6, "event");
        emitSpeedLeg(j, s.committed, s.eventSeconds, 6); j.raw(",\n");
        j.key(6, "speedup");
        j.number(clampSeconds(s.scanSeconds) /
                 clampSeconds(s.eventSeconds));
        j.raw("\n");
        j.pad(4); j.raw("}");
        j.raw(i + 1 < samples.size() ? ",\n" : "\n");
    }
    j.pad(2); j.raw("],\n");

    // Aggregate = one virtual run of the whole suite back to back, so
    // long workloads weigh more than short ones (this is the number
    // the CI regression gate and the issue's 2x target refer to).
    j.key(2, "aggregate"); j.raw("{\n");
    j.key(4, "committed"); j.number(committed); j.raw(",\n");
    j.key(4, "scan_mips"); j.number(mips(committed, scan_s));
    j.raw(",\n");
    j.key(4, "event_mips"); j.number(mips(committed, event_s));
    j.raw(",\n");
    j.key(4, "speedup");
    j.number(clampSeconds(scan_s) / clampSeconds(event_s));
    j.raw("\n");
    j.pad(2); j.raw("}");

    if (info.endToEnd.present) {
        const SpeedEndToEnd &e = info.endToEnd;
        j.raw(",\n");
        j.key(2, "end_to_end"); j.raw("{\n");
        j.key(4, "baseline_rev"); j.string(e.baselineRev); j.raw(",\n");
        j.key(4, "sweep_scale"); j.number(e.sweepScale); j.raw(",\n");
        j.key(4, "baseline_seconds"); j.number(e.baselineSeconds);
        j.raw(",\n");
        j.key(4, "current_seconds"); j.number(e.currentSeconds);
        j.raw(",\n");
        j.key(4, "speedup");
        j.number(clampSeconds(e.baselineSeconds) /
                 clampSeconds(e.currentSeconds));
        j.raw("\n");
        j.pad(2); j.raw("}");
    }

    if (info.sampled.present) {
        const SampledSpeed &sp = info.sampled;
        double full_s = 0.0;
        double sampled_s = 0.0;
        bool all_cover = true;
        j.raw(",\n");
        j.key(2, "sampled"); j.raw("{\n");
        j.key(4, "interval"); j.number(sp.interval); j.raw(",\n");
        j.key(4, "window"); j.number(sp.window); j.raw(",\n");
        j.key(4, "warmup"); j.number(sp.warmup); j.raw(",\n");
        j.key(4, "warmff"); j.number(sp.warmff); j.raw(",\n");
        j.key(4, "workloads"); j.raw("[\n");
        for (std::size_t i = 0; i < sp.samples.size(); ++i) {
            const SampledSpeedSample &s = sp.samples[i];
            full_s += s.fullSeconds;
            sampled_s += s.sampledSeconds;
            all_cover = all_cover && s.ciCovers;
            j.pad(6); j.raw("{\n");
            j.key(8, "name"); j.string(s.workload); j.raw(",\n");
            j.key(8, "committed"); j.number(s.committed); j.raw(",\n");
            j.key(8, "full_seconds"); j.number(s.fullSeconds);
            j.raw(",\n");
            j.key(8, "sampled_seconds"); j.number(s.sampledSeconds);
            j.raw(",\n");
            j.key(8, "full_ipc"); j.number(s.fullIpc); j.raw(",\n");
            j.key(8, "ipc_estimate"); j.number(s.ipcEstimate);
            j.raw(",\n");
            j.key(8, "ci95"); j.number(s.ci95); j.raw(",\n");
            j.key(8, "windows"); j.number(s.windows); j.raw(",\n");
            j.key(8, "ci_covers_full_ipc"); j.boolean(s.ciCovers);
            j.raw(",\n");
            j.key(8, "speedup");
            j.number(clampSeconds(s.fullSeconds) /
                     clampSeconds(s.sampledSeconds));
            j.raw("\n");
            j.pad(6); j.raw("}");
            j.raw(i + 1 < sp.samples.size() ? ",\n" : "\n");
        }
        j.pad(4); j.raw("],\n");
        j.key(4, "aggregate"); j.raw("{\n");
        j.key(6, "full_seconds"); j.number(full_s); j.raw(",\n");
        j.key(6, "sampled_seconds"); j.number(sampled_s); j.raw(",\n");
        j.key(6, "speedup");
        j.number(clampSeconds(full_s) / clampSeconds(sampled_s));
        j.raw(",\n");
        j.key(6, "all_ci_cover"); j.boolean(all_cover); j.raw("\n");
        j.pad(4); j.raw("}\n");
        j.pad(2); j.raw("}");
    }

    if (info.parallelSampled.present) {
        const ParallelSampled &ps = info.parallelSampled;
        double base_s = 0.0;
        double warm_s = 0.0;
        j.raw(",\n");
        j.key(2, "parallel_sampled"); j.raw("{\n");
        j.key(4, "scale"); j.number(std::uint64_t(ps.scale));
        j.raw(",\n");
        j.key(4, "interval"); j.number(ps.interval); j.raw(",\n");
        j.key(4, "window"); j.number(ps.window); j.raw(",\n");
        j.key(4, "warmup"); j.number(ps.warmup); j.raw(",\n");
        j.key(4, "warmff"); j.number(ps.warmff); j.raw(",\n");
        j.key(4, "workloads"); j.raw("[\n");
        for (std::size_t i = 0; i < ps.samples.size(); ++i) {
            const ParallelSampledSample &s = ps.samples[i];
            base_s += s.baseline.total;
            warm_s += s.warm.total;
            j.pad(6); j.raw("{\n");
            j.key(8, "name"); j.string(s.workload); j.raw(",\n");
            j.key(8, "baseline");
            emitPhaseSeconds(j, s.baseline, 8); j.raw(",\n");
            j.key(8, "warm");
            emitPhaseSeconds(j, s.warm, 8); j.raw(",\n");
            j.key(8, "ckpt_hits"); j.number(s.ckptHits); j.raw(",\n");
            j.key(8, "ckpt_generated"); j.number(s.ckptGenerated);
            j.raw(",\n");
            j.key(8, "window_jobs"); j.number(s.windowJobs);
            j.raw(",\n");
            j.key(8, "speedup");
            j.number(clampSeconds(s.baseline.total) /
                     clampSeconds(s.warm.total));
            j.raw("\n");
            j.pad(6); j.raw("}");
            j.raw(i + 1 < ps.samples.size() ? ",\n" : "\n");
        }
        j.pad(4); j.raw("],\n");
        j.key(4, "aggregate"); j.raw("{\n");
        j.key(6, "baseline_seconds"); j.number(base_s); j.raw(",\n");
        j.key(6, "warm_seconds"); j.number(warm_s); j.raw(",\n");
        j.key(6, "speedup");
        j.number(clampSeconds(base_s) / clampSeconds(warm_s));
        j.raw("\n");
        j.pad(4); j.raw("}\n");
        j.pad(2); j.raw("}");
    }
    j.raw("\n");
    j.raw("}\n");
    return os.str();
}

void
writeSimspeedFile(const std::string &path, const SpeedRunInfo &info,
                  const std::vector<SpeedSample> &samples)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open simspeed file '", path, "' for writing");
    out << simspeedJson(info, samples);
    out.flush();
    if (!out)
        fatal("failed writing simspeed file '", path, "'");
}

} // namespace drsim
