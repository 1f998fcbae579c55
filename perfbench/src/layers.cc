/**
 * @file
 * Per-layer probes for the traced run.  Each probe times calls into
 * one drsim module's public functions from the benchmark's side of the
 * API: the emulator, the standalone caches and predictors (replaying
 * the architectural streams the sweeps simulate), the checkpoint
 * store, the point-record codec, the point cache and the results-JSON
 * emitter.
 */

#include <filesystem>

#include "bench.hh"
#include "bpred/predictor.hh"
#include "exp/registry.hh"
#include "memory/cache.hh"
#include "serve/point_cache.hh"
#include "serve/result_io.hh"
#include "sim/ckpt_store.hh"
#include "workloads/digest.hh"
#include "workloads/emulator.hh"

namespace drsim {
namespace bench {
namespace {

/** One kernel's architectural stream, captured with stepArch(). */
struct ArchStream
{
    std::vector<Addr> fetches;
    std::vector<Addr> memAddrs;
    std::vector<bool> memIsStore;
    std::vector<Addr> branchPcs;
    std::vector<bool> branchTaken;
};

ArchStream
capture(const Program &program)
{
    ArchStream s;
    Emulator emu(program);
    while (!emu.fetchBlocked()) {
        const StepInfo si = emu.stepArch();
        s.fetches.push_back(si.pc);
        if (si.inst->isMem()) {
            s.memAddrs.push_back(si.effAddr);
            s.memIsStore.push_back(si.inst->isStore());
        } else if (si.inst->isCondBranch()) {
            s.branchPcs.push_back(si.pc);
            s.branchTaken.push_back(si.actualTaken);
        }
        if (si.isHalt)
            break;
    }
    return s;
}

} // namespace

void
probeComponents(const std::vector<Workload> &suite, JsonLine &out)
{
    const CoreConfig cfg = exp::paperConfig(4, 96);
    double step_s = 0.0, steps = 0.0, ff_s = 0.0, ff_n = 0.0;
    double dc_s = 0.0, dc_n = 0.0, loads = 0.0, misses = 0.0;
    double ic_s = 0.0, ic_n = 0.0;
    const std::vector<std::string> &specs = predictorSpecs();
    std::vector<double> bp_s(specs.size()), bp_miss(specs.size());
    double branches = 0.0;

    for (const Workload &w : suite) {
        {
            Emulator emu(w.program);
            const double t0 = nowSeconds();
            std::uint64_t n = 0;
            while (!emu.fetchBlocked()) {
                ++n;
                if (emu.stepArch().isHalt)
                    break;
            }
            step_s += nowSeconds() - t0;
            steps += double(n);
        }
        {
            Emulator emu(w.program);
            const double t0 = nowSeconds();
            ff_n += double(emu.fastForward(~std::uint64_t{0}));
            ff_s += nowSeconds() - t0;
        }
        const ArchStream s = capture(w.program);

        DataCache dc(cfg.cacheKind, cfg.dcache);
        Cycle now = 0;
        InstUid uid = 0;
        double t0 = nowSeconds();
        for (std::size_t i = 0; i < s.memAddrs.size(); ++i) {
            ++now;
            if (s.memIsStore[i]) {
                if (dc.storeCanCommit(now))
                    dc.storeCommit(s.memAddrs[i], now);
            } else if (dc.loadCanIssue(now)) {
                dc.load(s.memAddrs[i], now, uid++);
            }
        }
        dc_s += nowSeconds() - t0;
        dc_n += double(s.memAddrs.size());
        loads += double(dc.stats().loads);
        misses += double(dc.stats().loadMisses);

        InstCache ic(cfg.icache);
        now = 0;
        t0 = nowSeconds();
        for (Addr pc : s.fetches)
            now = std::max(now + 1, ic.fetch(pc, now));
        ic_s += nowSeconds() - t0;
        ic_n += double(s.fetches.size());

        for (std::size_t p = 0; p < specs.size(); ++p) {
            const auto bp = makeBranchPredictor(specs[p]);
            std::uint64_t wrong = 0;
            t0 = nowSeconds();
            for (std::size_t i = 0; i < s.branchPcs.size(); ++i) {
                const Addr pc = s.branchPcs[i];
                const bool taken = s.branchTaken[i];
                const std::uint64_t h = bp->history();
                const bool pred = bp->predictAndUpdateHistory(pc);
                bp->update(pc, h, taken);
                if (pred != taken) {
                    bp->repairHistory(h, taken);
                    ++wrong;
                }
            }
            bp_s[p] += nowSeconds() - t0;
            bp_miss[p] += double(wrong);
        }
        branches += double(s.branchPcs.size());
    }

    out.num("workloads.emu_step_ns", 1e9 * step_s / steps);
    out.num("workloads.emu_ff_mips", ff_n / ff_s / 1e6);
    out.num("memory.dcache_access_ns", 1e9 * dc_s / dc_n);
    out.num("memory.dcache_miss_rate", misses / loads);
    out.num("memory.icache_fetch_ns", 1e9 * ic_s / ic_n);
    for (std::size_t p = 0; p < specs.size(); ++p) {
        out.num("bpred." + specs[p] + ".ns_per_branch",
                1e9 * bp_s[p] / branches);
        out.num("bpred." + specs[p] + ".mispredict_rate",
                bp_miss[p] / branches);
    }
}

void
probeCheckpoints(const std::vector<Workload> &suite, JsonLine &out)
{
    const SamplingConfig sc = exp::parseSamplingSpec(kSampleSpec);
    CkptStore store("");
    double cold = 0.0, warm = 0.0, generated = 0.0;
    for (const Workload &w : suite) {
        const CkptKey key = ckptKeyFor(w.spec->name, w.program, sc);
        const double t0 = nowSeconds();
        generated += double(store.acquire(key, w.program).generated);
        const double t1 = nowSeconds();
        store.acquire(key, w.program);
        warm += nowSeconds() - t1;
        cold += t1 - t0;
    }
    const double n = double(suite.size());
    out.num("sim.ckpt_acquire_cold_ms", 1e3 * cold / n);
    out.num("sim.ckpt_acquire_warm_us", 1e6 * warm / n);
    out.num("sim.ckpt_generated", generated);
    out.num("sim.ckpt_memory_hits", double(store.stats().memoryHits));
}

void
probeCodecs(const std::vector<ExperimentResult> &results,
            const std::vector<Workload> &suite, int scale,
            const std::string &dir, JsonLine &out)
{
    // The first configs' points bound the probe's time (a record
    // decodes in about 2 ms).
    const std::size_t configs = std::min<std::size_t>(results.size(), 24);
    double enc = 0.0, dec = 0.0, bytes = 0.0, n = 0.0;
    for (std::size_t i = 0; i < configs; ++i) {
        for (const SimResult &run : results[i].suite.runs()) {
            const double t0 = nowSeconds();
            const std::string rec = serve::pointRecordJson(run);
            const double t1 = nowSeconds();
            serve::parsePointRecord(rec);
            dec += nowSeconds() - t1;
            enc += t1 - t0;
            bytes += double(rec.size());
            n += 1.0;
        }
    }
    out.num("serve.record_encode_us", 1e6 * enc / n);
    out.num("serve.record_decode_us", 1e6 * dec / n);
    out.num("serve.record_bytes", bytes / n);

    // Point cache on a scratch directory: store, then load, the same
    // points.
    const std::string pc_dir = dir + "/point-cache-probe";
    std::filesystem::remove_all(pc_dir);
    double st = 0.0, ld = 0.0, m = 0.0;
    {
        serve::PointCache cache(pc_dir, serve::pointCacheRev(), 0);
        std::vector<std::string> digests;
        for (const Workload &w : suite)
            digests.push_back(drsim::programDigest(w.program));
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < configs; ++i) {
                const auto &runs = results[i].suite.runs();
                for (std::size_t w = 0; w < runs.size(); ++w) {
                    const serve::PointKey key{results[i].spec.config,
                                              runs[w].workload,
                                              digests[w]};
                    const double t0 = nowSeconds();
                    if (pass == 0)
                        cache.store(key, runs[w]);
                    else
                        cache.load(key);
                    (pass == 0 ? st : ld) += nowSeconds() - t0;
                    if (pass == 0)
                        m += 1.0;
                }
            }
        }
    }
    std::filesystem::remove_all(pc_dir);
    out.num("serve.point_cache_store_us", 1e6 * st / m);
    out.num("serve.point_cache_load_us", 1e6 * ld / m);

    const double t0 = nowSeconds();
    const std::string doc = resultsJson(RunInfo{"fig7", scale, 0}, results);
    out.num("exp.results_json_ms", 1e3 * (nowSeconds() - t0));
    out.num("exp.results_json_bytes", double(doc.size()));
}

void
reportCore(const std::vector<const SimResult *> &runs,
           const std::vector<double> &seconds, JsonLine &out)
{
    double secs = 0.0, cycles = 0.0, committed = 0.0, squashed = 0.0,
           busy = 0.0;
    for (double s : seconds)
        secs += s;
    for (const SimResult *r : runs) {
        cycles += double(r->proc.cycles);
        committed += double(r->proc.committed);
        squashed += double(r->proc.squashedInsts);
        busy += double(r->proc.busyCycles());
    }
    out.num("core.ns_per_cycle", 1e9 * secs / cycles);
    out.num("core.ns_per_commit", 1e9 * secs / committed);
    out.num("core.squash_frac", squashed / (committed + squashed));
    out.num("core.busy_frac", busy / cycles);
}

void
reportSampling(const std::vector<const SimResult *> &runs, JsonLine &out)
{
    double acquire = 0.0, warmup = 0.0, window = 0.0;
    for (const SimResult *r : runs) {
        acquire += r->profile.acquireSeconds;
        warmup += r->profile.warmupSeconds;
        window += r->profile.windowSeconds;
    }
    out.num("sim.sample_acquire_s", acquire);
    out.num("sim.sample_warmup_s", warmup);
    out.num("sim.sample_window_s", window);
}

void
probeSampledKernels(std::uint64_t seed, JsonLine &out)
{
    const std::vector<Workload> suite =
        buildSpec92Suite(kSampledScale, seed);
    std::vector<double> seconds;
    const std::vector<SimResult> runs =
        timedSuite(centreConfig(true), suite, seconds);
    reportSampling(pointers(runs), out);
    probeCheckpoints(suite, out);
}

void
reportServed(const ServedProbe &p, JsonLine &out)
{
    out.num("serve.ack_p50_ms", p.ackP50Ms);
    out.num("serve.points_p50_ms", p.pointsP50Ms);
    out.num("serve.memory_hits", p.memoryHits);
    out.num("serve.disk_hits", p.diskHits);
    out.num("serve.computed", p.computed);
    out.num("serve.coalesced", p.coalesced);
    out.num("serve.hit_frac", p.hitFrac);
}

} // namespace bench
} // namespace drsim
