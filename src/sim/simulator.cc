#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/ckpt_store.hh"
#include "sim/runner.hh"

namespace drsim {

namespace {

std::mutex &
execPolicyMutex()
{
    static std::mutex m;
    return m;
}

SamplingExecPolicy &
execPolicyValue()
{
    static SamplingExecPolicy policy;
    return policy;
}

} // namespace

void
setSamplingExecPolicy(const SamplingExecPolicy &policy)
{
    std::lock_guard<std::mutex> lock(execPolicyMutex());
    execPolicyValue() = policy;
}

SamplingExecPolicy
samplingExecPolicy()
{
    std::lock_guard<std::mutex> lock(execPolicyMutex());
    return execPolicyValue();
}

namespace {

/** Successful default-option verification verdicts by program content
 *  digest.  A sweep calls verifyProgram() once per configuration point
 *  on the *same* program; the verdict is a pure function of the
 *  program text, so re-analysis is pure overhead.  Failures are never
 *  cached — they fatal() out of the process anyway. */
std::mutex verifiedMutex;
std::unordered_set<std::string> verifiedDigests;

bool
cacheableOptions(const analysis::Options &opts)
{
    static const analysis::Options defaults;
    return opts.abiInitializedRegs.empty() &&
           opts.checkMix == defaults.checkMix &&
           opts.mixTolerancePct == defaults.mixTolerancePct;
}

} // namespace

void
verifyProgram(const Program &program, const analysis::Options &opts)
{
    const bool cacheable =
        cacheableOptions(opts) && !program.contentDigest().empty();
    if (cacheable) {
        std::lock_guard<std::mutex> lock(verifiedMutex);
        if (verifiedDigests.count(program.contentDigest()) != 0)
            return;
    }
    const analysis::Report report =
        analysis::analyzeProgram(program, opts);
    if (!report.hasErrors()) {
        if (cacheable) {
            std::lock_guard<std::mutex> lock(verifiedMutex);
            verifiedDigests.insert(program.contentDigest());
        }
        return;
    }
    std::ostringstream os;
    for (const analysis::Finding &f : report.findings) {
        if (f.severity == analysis::Severity::Error)
            os << "\n  " << analysis::formatFinding(f);
    }
    fatal("program '", program.name(),
          "' failed static verification (", report.summary(),
          "); refusing to simulate:", os.str());
}

namespace {

SimResult
collect(Processor &proc, const std::string &name, bool fp_intensive)
{
    SimResult res;
    res.workload = name;
    res.fpIntensive = fp_intensive;
    res.stopReason = proc.stopReason();
    res.proc = proc.stats();
    res.dcache = proc.dcache().stats();
    res.icacheAccesses = proc.icache().accesses();
    res.icacheMisses = proc.icache().misses();
    res.loadMissRate = proc.loadMissRate();
    for (int c = 0; c < kNumRegClasses; ++c)
        res.lifetime[c] = proc.rename().lifetimeHistogram(RegClass(c));
    return res;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * One independent detailed phase of a sampled run (DESIGN.md §5j):
 * restore the checkpoint at @ref restore and the window's warm state,
 * run a histogram-gated warm-up of @ref warmTarget, then measure
 * @ref winTarget committed instructions.  The non-measured variant is
 * the detailed tail that commits the Halt.
 */
struct WindowTask
{
    /** Detail start restored into the fresh machine (0 = reset state,
     *  no snapshot needed). */
    std::uint64_t restore = 0;
    /** Functionally warmed caches and predictor at @ref restore
     *  (nullptr = cold: the first window and the tail). */
    const WarmState *warm = nullptr;
    std::uint64_t warmTarget = 0;
    std::uint64_t winTarget = 0;
    /** Contributes one window-IPC sample to the estimate. */
    bool measured = true;
};

/**
 * The detailed phases of one sampled run, derived from the
 * checkpoint plan and the instruction budget.  Every budget
 * truncation is terminal (the plan ends at it), so detailed phases
 * only ever start at budget-independent checkpoint positions — the
 * property that lets a whole sweep share one checkpoint set.
 */
struct SamplePlan
{
    std::vector<WindowTask> tasks;
    /** Architectural instructions the plan advances over (functional
     *  gaps + detailed targets); the budget is enforced against it. */
    std::uint64_t advanced = 0;
    bool limitHit = false;
};

SamplePlan
planWindows(const SamplingConfig &sc, const SampleCkpts &ckpts,
            const WarmStates &states, std::uint64_t budget)
{
    SamplePlan plan;
    const std::uint64_t n = ckpts.archLength;
    std::uint64_t a = 0;
    std::uint64_t pos = 0;                 // detail start of the next phase
    const WarmState *warm_state = nullptr; // its warm state
    std::size_t k = 0;
    const auto rem = [&] {
        return budget == 0 ? ~std::uint64_t{0}
                           : budget - std::min(budget, a);
    };
    while (true) {
        if (rem() == 0) {
            plan.limitHit = true;
            break;
        }
        // Detailed phase.  Each period runs warm-up -> measurement ->
        // gap, so the first measured window observes the program's
        // initialization phase instead of fast-forwarding past it.
        const std::uint64_t warm = std::min(sc.warmup, rem());
        const std::uint64_t win = std::min(sc.window, rem() - warm);
        plan.tasks.push_back({pos, warm_state, warm, win, true});
        const std::uint64_t d = std::min(warm + win, n + 1 - pos);
        a += d;
        pos += d;
        if (pos >= n + 1)
            break; // the Halt commits inside this detailed phase
        if (rem() == 0) {
            plan.limitHit = true;
            break;
        }

        // Functional gap to the next checkpointed detail start.  The
        // stored plan is the single source of truth for window
        // placement (the jitter sequence lives in the checkpoint
        // generator), so serial, window-parallel, and
        // checkpoint-warm runs share identical plans by construction.
        // The final position is the architectural end.
        const std::uint64_t next = ckpts.positions[k];
        if (next >= n) {
            const std::uint64_t gap = n - pos;
            if (rem() < gap) {
                a += rem();
                plan.limitHit = true;
                break;
            }
            a += gap;
            pos = n;
            if (rem() == 0) {
                plan.limitHit = true;
                break;
            }
            // Detailed tail: restore at the architectural end and
            // commit the Halt (ungated, cold, not a measured window).
            plan.tasks.push_back({n, nullptr, 0, 1, false});
            a += 1;
            break;
        }
        const std::uint64_t gap = next - pos;
        if (rem() < gap) {
            a += rem();
            plan.limitHit = true;
            break;
        }
        a += gap;
        pos = next;
        warm_state = &states.at(k);
        ++k;
    }
    plan.advanced = a;
    return plan;
}

/** Everything one window task measures, merged in plan order. */
struct WindowOutcome
{
    ProcStats proc;
    DCacheStats dcache;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;
    Histogram lifetime[kNumRegClasses];
    std::uint64_t warmCommitted = 0;
    std::uint64_t windowCommitted = 0;
    Cycle windowCycles = 0;
    StopReason stop = StopReason::Running;
    double restoreSeconds = 0.0;
    double warmSeconds = 0.0;
    double windowSeconds = 0.0;
};

WindowOutcome
runWindowTask(const CoreConfig &detail, const Program &program,
              const SampleCkpts &ckpts, const WindowTask &task)
{
    WindowOutcome out;
    // Construct directly in the snapshot state: the restore-at-
    // construction overload skips the initial-image build, so a window
    // task's setup cost is one bulk snapshot copy rather than three
    // passes over the data segment (zero-fill, image build, restore).
    const auto restore0 = std::chrono::steady_clock::now();
    const EmuArchState *state = nullptr;
    if (task.restore != 0) {
        state = ckpts.stateAt(task.restore);
        if (state == nullptr) {
            fatal("sampling plan references position ", task.restore,
                  " with no checkpoint");
        }
    }
    Processor proc = state != nullptr
                         ? Processor(detail, program, *state)
                         : Processor(detail, program);
    if (task.warm != nullptr)
        proc.restoreWarmState(*task.warm);
    out.restoreSeconds = secondsSince(restore0);

    const auto warm0 = std::chrono::steady_clock::now();
    if (task.warmTarget > 0) {
        proc.setStatsGate(true);
        proc.runDetailed(task.warmTarget);
        proc.setStatsGate(false);
    }
    out.warmCommitted = proc.stats().committed;
    out.warmSeconds = secondsSince(warm0);

    const auto win0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = proc.stats().committed;
    const Cycle y0 = proc.stats().cycles;
    if (task.winTarget > 0)
        proc.runDetailed(c0 + task.winTarget);
    out.windowCommitted = proc.stats().committed - c0;
    out.windowCycles = proc.stats().cycles - y0;
    out.windowSeconds = secondsSince(win0);

    out.stop = proc.stopReason();
    out.proc = proc.stats();
    out.dcache = proc.dcache().stats();
    out.icacheAccesses = proc.icache().accesses();
    out.icacheMisses = proc.icache().misses();
    for (int c = 0; c < kNumRegClasses; ++c)
        out.lifetime[c] =
            proc.rename().lifetimeHistogram(RegClass(c));
    return out;
}

/**
 * SMARTS-style systematic sampling, checkpoint-restored and
 * window-parallel (DESIGN.md §5j).  The run decomposes into three
 * phases: acquire the checkpointed interval plan from the library
 * (generated once per (workload, sampling spec), shared across a
 * sweep) with its per-window warm states (generated once per warm
 * key), derive the detailed window tasks from it under the
 * instruction budget, and run every task on an independent Processor.
 * Tasks write indexed outcome slots that are merged in plan order, so
 * the combined SampledStats is bit-identical whether the tasks ran
 * serially, on a private pool, or as a TaskGroup of the caller's pool
 * — and whether the checkpoints were cold or warm.
 */
SimResult
runOneSampled(const CoreConfig &config, const Program &program,
              const std::string &name, bool fp_intensive)
{
    const SamplingConfig &sc = config.sampling;
    CoreConfig detail = config;
    // The commit-count limit is enforced by the plan against *total*
    // instructions advanced (fast-forwarded + detailed); the core's
    // detailed-only counter would run far past the budget.
    detail.maxCommitted = 0;
    const std::uint64_t budget = config.maxCommitted;
    const SamplingExecPolicy policy = samplingExecPolicy();

    SampleProfile prof;

    // Phase 1: acquire the checkpoint plan and its warm states.
    const auto acq0 = std::chrono::steady_clock::now();
    const CkptKey key = ckptKeyFor(name, program, sc);
    const WarmKey warm_key = warmKeyFor(config);
    std::shared_ptr<const SampleCkpts> ckpts;
    std::shared_ptr<const WarmStates> warm;
    if (policy.useCkptLibrary) {
        CkptStore &library = ckptLibrary();
        CkptStore::AcquireOutcome got = library.acquire(key, program);
        ckpts = got.plan;
        prof.ckptGenerated = got.generated;
        prof.ckptFromMemory = got.fromMemory;
        warm = library.acquireWarm(key, *ckpts, program, warm_key);
    } else {
        // Library disabled (bench baseline): private cold plan and
        // warm states.
        ckpts = std::make_shared<SampleCkpts>(
            generateSampleCkpts(key, program));
        prof.ckptGenerated = ckpts->states.size();
        warm = std::make_shared<WarmStates>(
            generateWarmStates(key, *ckpts, program, warm_key));
    }
    prof.acquireSeconds = secondsSince(acq0);

    // Phase 2: derive the window tasks.
    const SamplePlan plan = planWindows(sc, *ckpts, *warm, budget);

    // Phase 3: run the tasks.  Results land in indexed slots, so the
    // execution policy can never affect the merged statistics.
    std::vector<WindowOutcome> outs(plan.tasks.size());
    const auto runTask = [&](std::size_t i) {
        outs[i] =
            runWindowTask(detail, program, *ckpts, plan.tasks[i]);
    };
    ThreadPool *pool = ThreadPool::current();
    if (policy.windowJobs == 1 || plan.tasks.size() <= 1) {
        for (std::size_t i = 0; i < plan.tasks.size(); ++i)
            runTask(i);
    } else if (pool != nullptr) {
        // Already on a pool worker (parallel runner, serve daemon):
        // fan the windows out as a TaskGroup of the same pool instead
        // of oversubscribing with a second one.
        prof.windowJobs = pool->numThreads();
        ThreadPool::TaskGroup group(*pool);
        for (std::size_t i = 0; i < plan.tasks.size(); ++i)
            group.submit([&runTask, i] { runTask(i); });
        group.wait();
    } else {
        const int want =
            policy.windowJobs > 0 ? policy.windowJobs : resolveJobs();
        const int jobs = int(std::min<std::size_t>(
            std::size_t(want), plan.tasks.size()));
        if (jobs <= 1) {
            for (std::size_t i = 0; i < plan.tasks.size(); ++i)
                runTask(i);
        } else {
            prof.windowJobs = jobs;
            ThreadPool local(jobs);
            local.parallelFor(plan.tasks.size(), runTask);
        }
    }

    // Phase 4: merge in plan order.
    SimResult res;
    res.workload = name;
    res.fpIntensive = fp_intensive;

    SampledStats samp;
    samp.enabled = true;
    std::vector<double> window_cpi;
    StopReason anomaly = StopReason::Running;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const WindowOutcome &o = outs[i];
        res.proc.merge(o.proc);
        res.dcache.merge(o.dcache);
        res.icacheAccesses += o.icacheAccesses;
        res.icacheMisses += o.icacheMisses;
        for (int c = 0; c < kNumRegClasses; ++c)
            res.lifetime[c].merge(o.lifetime[c]);
        samp.warmupInsts += o.warmCommitted;
        if (plan.tasks[i].measured) {
            samp.measuredInsts += o.windowCommitted;
            samp.measuredCycles += o.windowCycles;
            if (o.windowCommitted > 0 && o.windowCycles > 0)
                window_cpi.push_back(double(o.windowCycles) /
                                     double(o.windowCommitted));
        }
        if (anomaly == StopReason::Running &&
            o.stop != StopReason::Running &&
            o.stop != StopReason::Halted)
            anomaly = o.stop;
        prof.restoreSeconds += o.restoreSeconds;
        prof.warmupSeconds += o.warmSeconds;
        prof.windowSeconds += o.windowSeconds;
    }

    samp.windows = window_cpi.size();
    if (!window_cpi.empty()) {
        // Windows hold (nearly) equal instruction counts, so the
        // unbiased population estimate is the mean per-window *CPI*
        // (arithmetic-averaging IPC would Jensen-bias the estimate
        // high); the interval maps through the reciprocal by the
        // delta method.
        double sum = 0.0;
        for (double cpi : window_cpi)
            sum += cpi;
        const double mean_cpi = sum / double(window_cpi.size());
        samp.ipcEstimate = 1.0 / mean_cpi;
        samp.ci95 = ci95HalfWidth(window_cpi) * samp.ipcEstimate *
                    samp.ipcEstimate;
    } else {
        // Degenerate run (shorter than one period): everything that
        // ran detailed is the best available estimate.
        samp.ipcEstimate = res.proc.commitIpc();
        samp.ci95 = 0.0;
    }
    // Detailed phases can overshoot their targets by up to
    // commitWidth - 1; attribute the overlap to the detailed side so
    // fastForwarded + committed still equals the instructions the
    // plan advanced over (the full-run committed count on a
    // run-to-halt, the budget on a truncated one).
    samp.fastForwarded = plan.advanced > res.proc.committed
                             ? plan.advanced - res.proc.committed
                             : 0;

    res.loadMissRate =
        res.proc.executedLoads == 0
            ? 0.0
            : double(res.dcache.loadMisses) /
                  double(res.proc.executedLoads);
    res.sampled = samp;
    res.profile = prof;
    res.stopReason = anomaly != StopReason::Running
                         ? anomaly
                         : (plan.limitHit ? StopReason::InstLimit
                                          : StopReason::Halted);
    return res;
}

SimResult
runOne(const CoreConfig &config, const Program &program,
       const std::string &name, bool fp_intensive)
{
    verifyProgram(program);
    if (config.sampling.enabled())
        return runOneSampled(config, program, name, fp_intensive);
    Processor proc(config, program);
    proc.run();
    SimResult res = collect(proc, name, fp_intensive);
    checkStaticBounds(config, program, res);
    return res;
}

} // namespace

SimResult
simulate(const CoreConfig &config, const Workload &workload)
{
    return runOne(config, workload.program, workload.spec->name,
                  workload.spec->fpIntensive);
}

SimResult
simulateProgram(const CoreConfig &config, const Program &program,
                bool fp_intensive)
{
    return runOne(config, program, program.name(), fp_intensive);
}

SuiteResult::SuiteResult(std::vector<SimResult> runs)
    : runs_(std::move(runs))
{
    if (runs_.empty())
        fatal("suite result needs at least one run");
}

double
SuiteResult::avgIssueIpc() const
{
    double sum = 0.0;
    for (const auto &r : runs_)
        sum += r.issueIpc();
    return sum / double(runs_.size());
}

double
SuiteResult::avgCommitIpc() const
{
    double sum = 0.0;
    for (const auto &r : runs_)
        sum += r.commitIpc();
    return sum / double(runs_.size());
}

double
SuiteResult::avgNoFreeRegPct() const
{
    double sum = 0.0;
    for (const auto &r : runs_)
        sum += r.noFreeRegPct();
    return sum / double(runs_.size());
}

double
SuiteResult::avgCausePct(CycleCause cause) const
{
    double sum = 0.0;
    for (const auto &r : runs_)
        sum += r.causePct(cause);
    return sum / double(runs_.size());
}

double
SuiteResult::avgStallPct() const
{
    double sum = 0.0;
    for (const auto &r : runs_)
        sum += r.stallPct();
    return sum / double(runs_.size());
}

std::vector<double>
SuiteResult::avgDensity(RegClass cls, LiveLevel level) const
{
    std::vector<std::vector<double>> densities;
    for (const auto &r : runs_) {
        if (cls == RegClass::Fp && !r.fpIntensive)
            continue; // FP curves use FP-intensive benchmarks only
        densities.push_back(
            r.proc.live[int(cls)][int(level)].normalized());
    }
    if (densities.empty())
        fatal("no benchmarks contribute to this density");
    return averageDensities(densities);
}

std::uint64_t
SuiteResult::livePercentile(RegClass cls, LiveLevel level,
                            double fraction) const
{
    return densityPercentile(avgDensity(cls, level), fraction);
}

std::vector<double>
SuiteResult::avgCoverage(RegClass cls, LiveLevel level) const
{
    return coverageCurve(avgDensity(cls, level));
}

SuiteResult
runSuite(const CoreConfig &config, const std::vector<Workload> &suite)
{
    std::vector<SimResult> runs;
    runs.reserve(suite.size());
    for (const auto &w : suite)
        runs.push_back(simulate(config, w));
    return SuiteResult(std::move(runs));
}

} // namespace drsim
