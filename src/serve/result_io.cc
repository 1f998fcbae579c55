#include "serve/result_io.hh"

#include <charconv>

#include "common/logging.hh"

namespace drsim {
namespace serve {

namespace {

StopReason
stopReasonFromName(const std::string &name)
{
    if (name == "running")
        return StopReason::Running;
    if (name == "halted")
        return StopReason::Halted;
    if (name == "inst-limit")
        return StopReason::InstLimit;
    fatal("point record: unknown stop_reason '", name, "'");
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendDouble(std::string &out, double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendKey(std::string &out, const char *key)
{
    out += '"';
    out += key;
    out += "\":";
}

void
appendHistogram(std::string &out, const Histogram &h)
{
    out += '[';
    const auto &counts = h.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i > 0)
            out += ',';
        appendU64(out, counts[i]);
    }
    out += ']';
}

Histogram
parseHistogram(const json::Value &v)
{
    Histogram h;
    const auto &items = v.items();
    for (std::size_t i = 0; i < items.size(); ++i)
        h.addSamples(i, items[i].asU64());
    if (h.counts().size() != items.size()) {
        // A trailing zero count cannot be produced by addSample/merge,
        // so a live histogram never serializes one; its presence means
        // the record was edited or corrupted.
        fatal("point record: histogram has a trailing zero count");
    }
    return h;
}

} // namespace

std::string
pointRecordJson(const SimResult &r)
{
    std::string out;
    out.reserve(1024);
    out += "{\"record\":\"drsim-point-v";
    appendU64(out, kPointRecordVersion);
    out += "\",";

    appendKey(out, "workload");
    out += '"' + json::escape(r.workload) + "\",";
    appendKey(out, "fp_intensive");
    out += r.fpIntensive ? "true," : "false,";
    appendKey(out, "stop_reason");
    out += std::string("\"") + stopReasonName(r.stopReason) + "\",";

    const SampledStats &sm = r.sampled;
    appendKey(out, "sampled");
    out += '{';
    appendKey(out, "enabled");
    out += sm.enabled ? "true," : "false,";
    const struct { const char *key; std::uint64_t value; } sfields[] = {
        {"windows", sm.windows},
        {"fast_forwarded", sm.fastForwarded},
        {"warmup_insts", sm.warmupInsts},
        {"measured_insts", sm.measuredInsts},
        {"measured_cycles", sm.measuredCycles},
    };
    for (const auto &[key, value] : sfields) {
        appendKey(out, key);
        appendU64(out, value);
        out += ',';
    }
    appendKey(out, "ipc_estimate");
    appendDouble(out, sm.ipcEstimate);
    out += ',';
    appendKey(out, "ci95");
    appendDouble(out, sm.ci95);
    out += "},";

    const ProcStats &p = r.proc;
    appendKey(out, "proc");
    out += '{';
    const struct { const char *key; std::uint64_t value; } scalars[] = {
        {"cycles", p.cycles},
        {"committed", p.committed},
        {"committed_loads", p.committedLoads},
        {"committed_stores", p.committedStores},
        {"committed_cond_branches", p.committedCondBranches},
        {"executed", p.executed},
        {"executed_loads", p.executedLoads},
        {"executed_stores", p.executedStores},
        {"executed_cond_branches", p.executedCondBranches},
        {"mispredicted_branches", p.mispredictedBranches},
        {"recoveries", p.recoveries},
        {"squashed_insts", p.squashedInsts},
        {"forwarded_loads", p.forwardedLoads},
        {"insert_stall_no_reg_cycles", p.insertStallNoRegCycles},
        {"insert_stall_dq_full_cycles", p.insertStallDqFullCycles},
        {"no_free_reg_cycles", p.noFreeRegCycles},
        {"fetch_blocked_cycles", p.fetchBlockedCycles},
        {"write_buffer_stall_cycles", p.writeBufferStallCycles},
    };
    for (const auto &[key, value] : scalars) {
        appendKey(out, key);
        appendU64(out, value);
        out += ',';
    }
    appendKey(out, "cause_cycles");
    out += '[';
    for (int c = 0; c < kNumCycleCauses; ++c) {
        if (c > 0)
            out += ',';
        appendU64(out, p.causeCycles[c]);
    }
    out += "],";
    appendKey(out, "dq_depth");
    appendHistogram(out, p.dqDepth);
    out += ',';
    appendKey(out, "window_depth");
    appendHistogram(out, p.windowDepth);
    out += ',';
    appendKey(out, "store_queue_depth");
    appendHistogram(out, p.storeQueueDepth);
    out += ',';
    appendKey(out, "live");
    out += '[';
    for (int cls = 0; cls < kNumRegClasses; ++cls) {
        if (cls > 0)
            out += ',';
        out += '[';
        for (int level = 0; level < 4; ++level) {
            if (level > 0)
                out += ',';
            appendHistogram(out, p.live[cls][level]);
        }
        out += ']';
    }
    out += "]},";

    const DCacheStats &d = r.dcache;
    appendKey(out, "dcache");
    out += '{';
    const struct { const char *key; std::uint64_t value; } dfields[] = {
        {"loads", d.loads},
        {"load_misses", d.loadMisses},
        {"load_merges", d.loadMerges},
        {"stores_buffered", d.storesBuffered},
        {"store_hits", d.storeHits},
        {"fetches_cancelled", d.fetchesCancelled},
        {"mshr_rejections", d.mshrRejections},
    };
    for (std::size_t i = 0; i < std::size(dfields); ++i) {
        if (i > 0)
            out += ',';
        appendKey(out, dfields[i].key);
        appendU64(out, dfields[i].value);
    }
    out += "},";

    appendKey(out, "icache_accesses");
    appendU64(out, r.icacheAccesses);
    out += ',';
    appendKey(out, "icache_misses");
    appendU64(out, r.icacheMisses);
    out += ',';
    appendKey(out, "load_miss_rate");
    appendDouble(out, r.loadMissRate);
    out += ',';
    appendKey(out, "lifetime");
    out += '[';
    for (int cls = 0; cls < kNumRegClasses; ++cls) {
        if (cls > 0)
            out += ',';
        appendHistogram(out, r.lifetime[cls]);
    }
    out += "]}";
    return out;
}

SimResult
parsePointRecord(const json::Value &v)
{
    if (!v.isObject())
        fatal("point record: not a JSON object");
    const std::string expected =
        "drsim-point-v" + std::to_string(kPointRecordVersion);
    if (v.at("record").asString() != expected) {
        fatal("point record: version tag '",
              v.at("record").asString(), "' (want '", expected, "')");
    }

    SimResult r;
    r.workload = v.at("workload").asString();
    r.fpIntensive = v.at("fp_intensive").asBool();
    r.stopReason = stopReasonFromName(v.at("stop_reason").asString());

    const json::Value &sampled = v.at("sampled");
    SampledStats &sm = r.sampled;
    sm.enabled = sampled.at("enabled").asBool();
    sm.windows = sampled.at("windows").asU64();
    sm.fastForwarded = sampled.at("fast_forwarded").asU64();
    sm.warmupInsts = sampled.at("warmup_insts").asU64();
    sm.measuredInsts = sampled.at("measured_insts").asU64();
    sm.measuredCycles = sampled.at("measured_cycles").asU64();
    sm.ipcEstimate = sampled.at("ipc_estimate").asNumber();
    sm.ci95 = sampled.at("ci95").asNumber();

    const json::Value &proc = v.at("proc");
    ProcStats &p = r.proc;
    p.cycles = proc.at("cycles").asU64();
    p.committed = proc.at("committed").asU64();
    p.committedLoads = proc.at("committed_loads").asU64();
    p.committedStores = proc.at("committed_stores").asU64();
    p.committedCondBranches =
        proc.at("committed_cond_branches").asU64();
    p.executed = proc.at("executed").asU64();
    p.executedLoads = proc.at("executed_loads").asU64();
    p.executedStores = proc.at("executed_stores").asU64();
    p.executedCondBranches = proc.at("executed_cond_branches").asU64();
    p.mispredictedBranches = proc.at("mispredicted_branches").asU64();
    p.recoveries = proc.at("recoveries").asU64();
    p.squashedInsts = proc.at("squashed_insts").asU64();
    p.forwardedLoads = proc.at("forwarded_loads").asU64();
    p.insertStallNoRegCycles =
        proc.at("insert_stall_no_reg_cycles").asU64();
    p.insertStallDqFullCycles =
        proc.at("insert_stall_dq_full_cycles").asU64();
    p.noFreeRegCycles = proc.at("no_free_reg_cycles").asU64();
    p.fetchBlockedCycles = proc.at("fetch_blocked_cycles").asU64();
    p.writeBufferStallCycles =
        proc.at("write_buffer_stall_cycles").asU64();

    const json::Value &causes = proc.at("cause_cycles");
    if (int(causes.items().size()) != kNumCycleCauses) {
        fatal("point record: cause_cycles has ",
              causes.items().size(), " entries (want ",
              kNumCycleCauses, ")");
    }
    for (int c = 0; c < kNumCycleCauses; ++c)
        p.causeCycles[c] = causes.at(std::size_t(c)).asU64();

    p.dqDepth = parseHistogram(proc.at("dq_depth"));
    p.windowDepth = parseHistogram(proc.at("window_depth"));
    p.storeQueueDepth = parseHistogram(proc.at("store_queue_depth"));
    const json::Value &live = proc.at("live");
    if (int(live.items().size()) != kNumRegClasses)
        fatal("point record: live has ", live.items().size(),
              " register classes");
    for (int cls = 0; cls < kNumRegClasses; ++cls) {
        const json::Value &levels = live.at(std::size_t(cls));
        if (levels.items().size() != 4)
            fatal("point record: live[", cls, "] has ",
                  levels.items().size(), " levels (want 4)");
        for (int level = 0; level < 4; ++level) {
            p.live[cls][level] =
                parseHistogram(levels.at(std::size_t(level)));
        }
    }

    const json::Value &dcache = v.at("dcache");
    DCacheStats &d = r.dcache;
    d.loads = dcache.at("loads").asU64();
    d.loadMisses = dcache.at("load_misses").asU64();
    d.loadMerges = dcache.at("load_merges").asU64();
    d.storesBuffered = dcache.at("stores_buffered").asU64();
    d.storeHits = dcache.at("store_hits").asU64();
    d.fetchesCancelled = dcache.at("fetches_cancelled").asU64();
    d.mshrRejections = dcache.at("mshr_rejections").asU64();

    r.icacheAccesses = v.at("icache_accesses").asU64();
    r.icacheMisses = v.at("icache_misses").asU64();
    r.loadMissRate = v.at("load_miss_rate").asNumber();
    const json::Value &lifetime = v.at("lifetime");
    if (int(lifetime.items().size()) != kNumRegClasses)
        fatal("point record: lifetime has ",
              lifetime.items().size(), " register classes");
    for (int cls = 0; cls < kNumRegClasses; ++cls)
        r.lifetime[cls] = parseHistogram(lifetime.at(std::size_t(cls)));
    return r;
}

SimResult
parsePointRecord(const std::string &text)
{
    return parsePointRecord(json::parse(text));
}

} // namespace serve
} // namespace drsim
