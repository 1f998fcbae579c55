#include "serve/result_io.hh"

#include <utility>

#include "common/logging.hh"

namespace drsim {
namespace serve {

namespace {

const std::string kRecordTag =
    "drsim-point-v" + std::to_string(kPointRecordVersion);

StopReason
stopReasonFromName(const std::string &name)
{
    for (const StopReason s : {StopReason::Running, StopReason::Halted,
                               StopReason::InstLimit}) {
        if (name == stopReasonName(s))
            return s;
    }
    fatal("point record: unknown stop_reason '", name, "'");
}

/** A key and the field of @p S it names; the tables below are the
 *  record's only spelling of each name, walked by both the encoder
 *  and the decoder. */
template <class S, class T>
using Member = std::pair<const char *, T S::*>;

constexpr Member<SampledStats, std::uint64_t> kSampledCounters[] = {
    {"windows", &SampledStats::windows},
    {"fast_forwarded", &SampledStats::fastForwarded},
    {"warmup_insts", &SampledStats::warmupInsts},
    {"measured_insts", &SampledStats::measuredInsts},
    {"measured_cycles", &SampledStats::measuredCycles},
};

constexpr Member<SampledStats, double> kSampledEstimates[] = {
    {"ipc_estimate", &SampledStats::ipcEstimate},
    {"ci95", &SampledStats::ci95},
};

constexpr Member<ProcStats, std::uint64_t> kProcCounters[] = {
    {"cycles", &ProcStats::cycles},
    {"committed", &ProcStats::committed},
    {"committed_loads", &ProcStats::committedLoads},
    {"committed_stores", &ProcStats::committedStores},
    {"committed_cond_branches", &ProcStats::committedCondBranches},
    {"executed", &ProcStats::executed},
    {"executed_loads", &ProcStats::executedLoads},
    {"executed_stores", &ProcStats::executedStores},
    {"executed_cond_branches", &ProcStats::executedCondBranches},
    {"mispredicted_branches", &ProcStats::mispredictedBranches},
    {"recoveries", &ProcStats::recoveries},
    {"squashed_insts", &ProcStats::squashedInsts},
    {"forwarded_loads", &ProcStats::forwardedLoads},
    {"insert_stall_no_reg_cycles", &ProcStats::insertStallNoRegCycles},
    {"insert_stall_dq_full_cycles", &ProcStats::insertStallDqFullCycles},
    {"no_free_reg_cycles", &ProcStats::noFreeRegCycles},
    {"fetch_blocked_cycles", &ProcStats::fetchBlockedCycles},
    {"write_buffer_stall_cycles", &ProcStats::writeBufferStallCycles},
};

constexpr Member<ProcStats, Histogram> kProcHistograms[] = {
    {"dq_depth", &ProcStats::dqDepth},
    {"window_depth", &ProcStats::windowDepth},
    {"store_queue_depth", &ProcStats::storeQueueDepth},
};

constexpr Member<DCacheStats, std::uint64_t> kDCacheCounters[] = {
    {"loads", &DCacheStats::loads},
    {"load_misses", &DCacheStats::loadMisses},
    {"load_merges", &DCacheStats::loadMerges},
    {"stores_buffered", &DCacheStats::storesBuffered},
    {"store_hits", &DCacheStats::storeHits},
    {"fetches_cancelled", &DCacheStats::fetchesCancelled},
    {"mshr_rejections", &DCacheStats::mshrRejections},
};

constexpr Member<SimResult, std::uint64_t> kResultCounters[] = {
    {"icache_accesses", &SimResult::icacheAccesses},
    {"icache_misses", &SimResult::icacheMisses},
};

void put(json::Writer &w, std::uint64_t v) { w.value(v); }
void put(json::Writer &w, double v) { w.value(v); }

/** A histogram travels as its dense count vector. */
void
put(json::Writer &w, const Histogram &h)
{
    w.beginArray();
    for (const std::uint64_t c : h.counts())
        w.value(c);
    w.endArray();
}

template <class T, std::size_t N>
void
put(json::Writer &w, const T (&a)[N])
{
    w.beginArray();
    for (const T &x : a)
        put(w, x);
    w.endArray();
}

template <class S, class T, std::size_t N>
void
writeMembers(json::Writer &w, const S &s, const Member<S, T> (&table)[N])
{
    for (const auto &[key, field] : table)
        put(w.key(key), s.*field);
}

/** The inverse of put(): a dense count vector back to a histogram. */
void
get(const json::Value &v, Histogram &out)
{
    out = Histogram();
    const auto &items = v.items();
    for (std::size_t i = 0; i < items.size(); ++i)
        out.addSamples(i, items[i].asU64());
    if (out.counts().size() != items.size()) {
        // A trailing zero count cannot be produced by addSample/merge,
        // so a live histogram never serializes one; its presence means
        // the record was edited or corrupted.
        fatal("point record: histogram has a trailing zero count");
    }
}

void get(const json::Value &v, std::uint64_t &out) { out = v.asU64(); }
void get(const json::Value &v, double &out) { out = v.asNumber(); }

template <class T, std::size_t N>
void
get(const json::Value &v, T (&a)[N])
{
    if (v.items().size() != N)
        fatal("point record: array has ", v.items().size(),
              " entries (want ", N, ")");
    for (std::size_t i = 0; i < N; ++i)
        get(v.at(i), a[i]);
}

template <class S, class T, std::size_t N>
void
readMembers(const json::Value &obj, S &s, const Member<S, T> (&table)[N])
{
    for (const auto &[key, field] : table)
        get(obj.at(key), s.*field);
}

} // namespace

void
writePointRecord(json::Writer &w, const SimResult &r)
{
    w.beginObject();
    w.key("record").value(kRecordTag);
    w.key("workload").value(r.workload);
    w.key("fp_intensive").value(r.fpIntensive);
    w.key("stop_reason").value(stopReasonName(r.stopReason));

    w.key("sampled").beginObject();
    w.key("enabled").value(r.sampled.enabled);
    writeMembers(w, r.sampled, kSampledCounters);
    writeMembers(w, r.sampled, kSampledEstimates);
    w.endObject();

    const ProcStats &p = r.proc;
    w.key("proc").beginObject();
    writeMembers(w, p, kProcCounters);
    put(w.key("cause_cycles"), p.causeCycles);
    writeMembers(w, p, kProcHistograms);
    put(w.key("live"), p.live);
    w.endObject();

    w.key("dcache").beginObject();
    writeMembers(w, r.dcache, kDCacheCounters);
    w.endObject();

    writeMembers(w, r, kResultCounters);
    w.key("load_miss_rate").value(r.loadMissRate);
    put(w.key("lifetime"), r.lifetime);
    w.endObject();
}

std::string
pointRecordJson(const SimResult &r)
{
    json::Writer w;
    writePointRecord(w, r);
    return w.str();
}

SimResult
parsePointRecord(const json::Value &v)
{
    if (!v.isObject())
        fatal("point record: not a JSON object");
    if (v.at("record").asString() != kRecordTag) {
        fatal("point record: version tag '",
              v.at("record").asString(), "' (want '", kRecordTag, "')");
    }

    SimResult r;
    r.workload = v.at("workload").asString();
    r.fpIntensive = v.at("fp_intensive").asBool();
    r.stopReason = stopReasonFromName(v.at("stop_reason").asString());

    const json::Value &sampled = v.at("sampled");
    r.sampled.enabled = sampled.at("enabled").asBool();
    readMembers(sampled, r.sampled, kSampledCounters);
    readMembers(sampled, r.sampled, kSampledEstimates);

    const json::Value &proc = v.at("proc");
    ProcStats &p = r.proc;
    readMembers(proc, p, kProcCounters);
    get(proc.at("cause_cycles"), p.causeCycles);
    readMembers(proc, p, kProcHistograms);
    get(proc.at("live"), p.live);

    readMembers(v.at("dcache"), r.dcache, kDCacheCounters);
    readMembers(v, r, kResultCounters);
    r.loadMissRate = v.at("load_miss_rate").asNumber();
    get(v.at("lifetime"), r.lifetime);
    return r;
}

SimResult
parsePointRecord(const std::string &text)
{
    return parsePointRecord(json::parse(text));
}

} // namespace serve
} // namespace drsim
