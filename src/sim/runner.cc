#include "sim/runner.hh"

#include <cstdlib>
#include <fstream>

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

using json::Writer;

/** A ratio whose denominator may be zero: null when undefined, so
 *  downstream tooling cannot mistake "no samples" for 0.0. */
void
ratio(Writer &w, const char *key, double v, bool defined)
{
    w.key(key);
    defined ? w.value(v) : w.null();
}

/** {"mean": .., "p90": .., "max": ..} for one occupancy histogram. */
void
writeOccupancy(Writer &w, const char *key, const Histogram &h)
{
    w.key(key).beginObject();
    w.key("mean").value(h.mean());
    w.key("p90").value(h.percentile(0.90));
    w.key("max").value(h.maxValue());
    w.endObject();
}

void
writeWorkload(Writer &w, const SimResult &r)
{
    const bool ran = r.proc.cycles > 0;
    w.beginObject();
    w.key("name").value(r.workload);
    w.key("fp_intensive").value(r.fpIntensive);
    w.key("stop_reason").value(stopReasonName(r.stopReason));
    w.key("cycles").value(std::uint64_t(r.proc.cycles));
    w.key("committed").value(r.proc.committed);
    w.key("executed").value(r.proc.executed);
    w.key("executed_loads").value(r.proc.executedLoads);
    w.key("executed_cond_branches").value(r.proc.executedCondBranches);
    ratio(w, "issue_ipc", r.issueIpc(), ran);
    ratio(w, "commit_ipc", r.commitIpc(), ran);
    // Sampled-mode estimate (schema v2, additive: only present when
    // the run used interval sampling, so full-detail artifacts stay
    // byte-identical).
    if (r.sampled.enabled) {
        w.key("ipc_estimate").value(r.sampled.ipcEstimate);
        w.key("ci95").value(r.sampled.ci95);
        w.key("windows").value(r.sampled.windows);
        w.key("fast_forwarded").value(r.sampled.fastForwarded);
    }
    ratio(w, "load_miss_rate", r.loadMissRate,
          r.proc.executedLoads > 0);
    ratio(w, "mispredict_rate", r.mispredictRate(),
          r.proc.executedCondBranches > 0);
    ratio(w, "no_free_reg_pct", r.noFreeRegPct(), ran);

    // Exclusive per-cycle attribution (schema v2): busy_cycles +
    // issue_width_bound_cycles + sum(stall_cycles.*) == cycles.
    w.key("busy_cycles").value(r.proc.cycleCauseCount(CycleCause::Busy));
    w.key("issue_width_bound_cycles")
        .value(r.proc.cycleCauseCount(CycleCause::IssueWidthBound));
    w.key("stall_cycles").beginObject();
    for (int c = int(CycleCause::WriteBufferFull); c < kNumCycleCauses;
         ++c) {
        // The result_bus bucket (schema v2, additive) is omitted when
        // no cycle was attributed to it, keeping unlimited-bus
        // artifacts byte-identical to the pre-bucket schema.
        if (CycleCause(c) == CycleCause::ResultBus &&
            r.proc.causeCycles[c] == 0)
            continue;
        w.key(cycleCauseName(CycleCause(c))).value(r.proc.causeCycles[c]);
    }
    w.endObject();

    // Structure-occupancy summaries; present only when the run
    // sampled at least one cycle.
    if (r.proc.dqDepth.totalSamples() > 0) {
        w.key("occupancy").beginObject();
        writeOccupancy(w, "dispatch_queue", r.proc.dqDepth);
        writeOccupancy(w, "window", r.proc.windowDepth);
        writeOccupancy(w, "store_queue", r.proc.storeQueueDepth);
        w.endObject();
    }
    w.endObject();
}

void
writeLivePercentiles(Writer &w, const char *key,
                     const SuiteResult &suite, RegClass cls)
{
    static const struct { const char *name; LiveLevel level; } kLevels[] = {
        {"in_flight", LiveLevel::InFlight},
        {"plus_queue", LiveLevel::PlusQueue},
        {"imprecise", LiveLevel::ImpreciseLive},
        {"precise", LiveLevel::PreciseLive},
    };
    w.key(key).beginObject();
    for (const auto &l : kLevels)
        w.key(l.name).value(suite.livePercentile(cls, l.level, 0.90));
    w.endObject();
}

void
writeExperiment(Writer &w, const ExperimentResult &res)
{
    const CoreConfig &cfg = res.spec.config;
    w.beginObject();
    w.key("name").value(res.spec.name);

    w.key("config").beginObject();
    w.key("issue_width").value(cfg.issueWidth);
    w.key("dq_size").value(cfg.dqSize);
    w.key("num_phys_regs").value(cfg.numPhysRegs);
    w.key("exception_model").value(exceptionModelName(cfg.exceptionModel));
    w.key("cache_kind").value(cacheKindName(cfg.cacheKind));
    w.key("max_committed").value(cfg.maxCommitted);
    // Non-default predictor / result-bus settings only (schema v2,
    // additive: default-config artifacts stay byte-identical).
    if (cfg.predictor != "mcfarling")
        w.key("predictor").value(cfg.predictor);
    if (cfg.resultBuses != 0)
        w.key("result_buses").value(cfg.resultBuses);
    if (cfg.sampling.enabled()) {
        w.key("sampling").beginObject();
        writeSamplingMembers(w, cfg.sampling);
        w.endObject();
    }
    w.endObject();

    const auto &runs = res.suite.runs();
    w.key("workloads").beginArray();
    for (const SimResult &r : runs)
        writeWorkload(w, r);
    w.endArray();

    bool any_fp = false;
    bool any_live = false;
    for (const auto &r : runs) {
        any_fp = any_fp || r.fpIntensive;
        any_live = any_live ||
                   r.proc.live[int(RegClass::Int)]
                             [int(LiveLevel::PreciseLive)]
                                 .totalSamples() > 0;
    }

    w.key("summary").beginObject();
    w.key("avg_issue_ipc").value(res.suite.avgIssueIpc());
    w.key("avg_commit_ipc").value(res.suite.avgCommitIpc());
    w.key("avg_no_free_reg_pct").value(res.suite.avgNoFreeRegPct());
    w.key("avg_stall_pct").value(res.suite.avgStallPct());
    if (any_live) {
        w.key("live_p90").beginObject();
        writeLivePercentiles(w, "int", res.suite, RegClass::Int);
        if (any_fp)
            writeLivePercentiles(w, "fp", res.suite, RegClass::Fp);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

void
writeJsonFile(const std::string &path, const char *what,
              const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open ", what, " file '", path, "' for writing");
    out << text;
    out.flush();
    if (!out)
        fatal("failed writing ", what, " file '", path, "'");
}

} // namespace

void
writeSamplingMembers(json::Writer &w, const SamplingConfig &s)
{
    w.key("interval").value(s.interval);
    w.key("window").value(s.window);
    w.key("warmup").value(s.warmup);
    w.key("warmff").value(std::uint64_t{0});
}

std::string
resultsJson(const RunInfo &info,
            const std::vector<ExperimentResult> &results)
{
    if (results.empty())
        fatal("resultsJson needs at least one experiment");
    Writer w(Writer::Style::Pretty);
    w.beginObject();
    w.key("schema_version").value(2);
    w.key("run_id").value(info.runId);

    w.key("suite").beginObject();
    w.key("scale").value(info.scale);
    w.key("max_committed").value(info.maxCommitted);
    w.key("workloads").beginArray();
    for (const SimResult &r : results.front().suite.runs())
        w.value(r.workload);
    w.endArray();
    w.endObject();

    w.key("experiments").beginArray();
    for (const ExperimentResult &res : results)
        writeExperiment(w, res);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

void
writeResultsFile(const std::string &path, const RunInfo &info,
                 const std::vector<ExperimentResult> &results)
{
    writeJsonFile(path, "results", resultsJson(info, results));
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
writeSpeedLeg(Writer &w, std::uint64_t committed, double seconds)
{
    w.key("seconds").value(seconds);
    w.key("mips").value(mips(committed, seconds));
}

void
writePhaseSeconds(Writer &w, const char *key,
                  const SampledPhaseSeconds &p)
{
    w.key(key).beginObject();
    w.key("seconds").value(p.total);
    w.key("acquire_seconds").value(p.acquire);
    w.key("restore_seconds").value(p.restore);
    w.key("warmup_seconds").value(p.warmup);
    w.key("window_seconds").value(p.window);
    w.endObject();
}

void
writeSpeedup(Writer &w, double before, double after)
{
    w.key("speedup").value(clampSeconds(before) / clampSeconds(after));
}

} // namespace

std::string
simspeedJson(const SpeedRunInfo &info,
             const std::vector<SpeedSample> &samples)
{
    if (samples.empty())
        fatal("simspeedJson needs at least one sample");
    Writer w(Writer::Style::Pretty);
    w.beginObject();
    w.key("schema").value("simspeed-v3");
    w.key("scale").value(info.scale);
    w.key("max_committed").value(info.maxCommitted);
    w.key("reps").value(info.reps);
    w.key("issue_width").value(info.issueWidth);
    w.key("num_phys_regs").value(info.numPhysRegs);

    std::uint64_t committed = 0;
    double seconds = 0.0;
    w.key("workloads").beginArray();
    for (const SpeedSample &s : samples) {
        committed += s.committed;
        seconds += s.seconds;
        w.beginObject();
        w.key("name").value(s.workload);
        w.key("committed").value(s.committed);
        w.key("cycles").value(s.cycles);
        writeSpeedLeg(w, s.committed, s.seconds);
        w.endObject();
    }
    w.endArray();

    // Aggregate = one virtual run of the whole suite back to back, so
    // long workloads weigh more than short ones.
    w.key("aggregate").beginObject();
    w.key("committed").value(committed);
    writeSpeedLeg(w, committed, seconds);
    w.endObject();

    const SampledSpeed &sp = info.sampled;
    double full_s = 0.0;
    double sampled_s = 0.0;
    bool all_cover = true;
    w.key("sampled").beginObject();
    writeSamplingMembers(w, sp.sampling);
    w.key("workloads").beginArray();
    for (const SampledSpeedSample &s : sp.samples) {
        full_s += s.fullSeconds;
        sampled_s += s.sampledSeconds;
        all_cover = all_cover && s.ciCovers;
        w.beginObject();
        w.key("name").value(s.workload);
        w.key("committed").value(s.committed);
        w.key("full_seconds").value(s.fullSeconds);
        w.key("sampled_seconds").value(s.sampledSeconds);
        w.key("full_ipc").value(s.fullIpc);
        w.key("ipc_estimate").value(s.ipcEstimate);
        w.key("ci95").value(s.ci95);
        w.key("windows").value(s.windows);
        w.key("ci_covers_full_ipc").value(s.ciCovers);
        writeSpeedup(w, s.fullSeconds, s.sampledSeconds);
        w.endObject();
    }
    w.endArray();
    w.key("aggregate").beginObject();
    w.key("full_seconds").value(full_s);
    w.key("sampled_seconds").value(sampled_s);
    writeSpeedup(w, full_s, sampled_s);
    w.key("all_ci_cover").value(all_cover);
    w.endObject();
    w.endObject();

    const ParallelSampled &ps = info.parallelSampled;
    double base_s = 0.0;
    double warm_s = 0.0;
    w.key("parallel_sampled").beginObject();
    w.key("scale").value(std::uint64_t(ps.scale));
    writeSamplingMembers(w, ps.sampling);
    w.key("workloads").beginArray();
    for (const ParallelSampledSample &s : ps.samples) {
        base_s += s.baseline.total;
        warm_s += s.warm.total;
        w.beginObject();
        w.key("name").value(s.workload);
        writePhaseSeconds(w, "baseline", s.baseline);
        writePhaseSeconds(w, "warm", s.warm);
        w.key("ckpt_generated").value(s.ckptGenerated);
        w.key("window_jobs").value(s.windowJobs);
        writeSpeedup(w, s.baseline.total, s.warm.total);
        w.endObject();
    }
    w.endArray();
    w.key("aggregate").beginObject();
    w.key("baseline_seconds").value(base_s);
    w.key("warm_seconds").value(warm_s);
    writeSpeedup(w, base_s, warm_s);
    w.endObject();
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

void
writeSimspeedFile(const std::string &path, const SpeedRunInfo &info,
                  const std::vector<SpeedSample> &samples)
{
    writeJsonFile(path, "simspeed", simspeedJson(info, samples));
}

} // namespace drsim
