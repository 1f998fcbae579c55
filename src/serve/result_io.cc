#include "serve/result_io.hh"

#include <functional>
#include <utility>
#include <vector>

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

/** One member an object being decoded must carry, and the reader of
 *  its value into the field it names. */
struct Slot
{
    const char *key;
    std::function<void(json::Reader &)> read;
};

void get(json::Reader &in, std::uint64_t &out) { out = in.readU64(); }
void get(json::Reader &in, double &out) { out = in.readNumber(); }
void get(json::Reader &in, bool &out) { out = in.readBool(); }
void get(json::Reader &in, std::string &out) { out = in.readString(); }

/** The inverse of put(): a dense count vector back to a histogram. */
void
get(json::Reader &in, Histogram &out)
{
    out = Histogram();
    std::uint64_t n = 0;
    in.beginArray();
    while (in.nextItem())
        out.addSamples(n++, in.readU64());
    if (out.counts().size() != n) {
        // A trailing zero count cannot be produced by addSample/merge,
        // so a live histogram never serializes one; its presence means
        // the record was edited or corrupted.
        fatal("point record: histogram has a trailing zero count");
    }
}

template <class T, std::size_t N>
void
get(json::Reader &in, T (&a)[N])
{
    std::size_t n = 0;
    in.beginArray();
    for (; in.nextItem(); ++n) {
        if (n < N)
            get(in, a[n]);
        else
            in.skipValue();
    }
    if (n != N)
        fatal("point record: array has ", n, " entries (want ", N, ")");
}

template <class T>
Slot
slot(const char *key, T &field)
{
    return {key, [&field](json::Reader &in) { get(in, field); }};
}

template <class S, class T, std::size_t N>
void
addMembers(std::vector<Slot> &slots, S &s, const Member<S, T> (&table)[N])
{
    for (const auto &[key, field] : table)
        slots.push_back(slot(key, s.*field));
}

/** Decode one object carrying exactly @p slots' members, in any
 *  order.  Unknown members are skipped; a missing or repeated one is
 *  fatal. */
void
readObject(json::Reader &in, const std::vector<Slot> &slots)
{
    if (in.peek() != json::Value::Kind::Object)
        fatal("point record: not a JSON object");
    std::vector<bool> seen(slots.size());
    std::string key;
    in.beginObject();
    while (in.nextMember(key)) {
        std::size_t i = 0;
        while (i < slots.size() && key != slots[i].key)
            ++i;
        if (i == slots.size()) {
            in.skipValue();
            continue;
        }
        if (seen[i])
            fatal("point record: member '", key, "' repeats");
        seen[i] = true;
        slots[i].read(in);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!seen[i])
            fatal("point record: no member '", slots[i].key, "'");
    }
}

/** Decode one record at @p in's position. */
SimResult
readPointRecord(json::Reader &in)
{
    SimResult r;

    std::vector<Slot> sampled = {slot("enabled", r.sampled.enabled)};
    addMembers(sampled, r.sampled, kSampledCounters);
    addMembers(sampled, r.sampled, kSampledEstimates);

    ProcStats &p = r.proc;
    std::vector<Slot> proc;
    addMembers(proc, p, kProcCounters);
    proc.push_back(slot("cause_cycles", p.causeCycles));
    addMembers(proc, p, kProcHistograms);
    proc.push_back(slot("live", p.live));

    std::vector<Slot> dcache;
    addMembers(dcache, r.dcache, kDCacheCounters);

    const auto object = [](const char *key,
                           const std::vector<Slot> &members) {
        return Slot{key, [&members](json::Reader &sub) {
                        readObject(sub, members);
                    }};
    };
    std::vector<Slot> top = {
        {"record",
         [](json::Reader &sub) {
             const std::string tag = sub.readString();
             if (tag != kRecordTag) {
                 fatal("point record: version tag '", tag, "' (want '",
                       kRecordTag, "')");
             }
         }},
        slot("workload", r.workload),
        slot("fp_intensive", r.fpIntensive),
        {"stop_reason",
         [&r](json::Reader &sub) {
             r.stopReason = stopReasonFromName(sub.readString());
         }},
        object("sampled", sampled),
        object("proc", proc),
        object("dcache", dcache),
    };
    addMembers(top, r, kResultCounters);
    top.push_back(slot("load_miss_rate", r.loadMissRate));
    top.push_back(slot("lifetime", r.lifetime));
    readObject(in, top);
    return r;
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
    return parsePointRecord(json::serialize(v));
}

SimResult
parsePointRecord(const std::string &text)
{
    json::Reader in(text);
    SimResult r = readPointRecord(in);
    in.finish();
    return r;
}

json::Value
parseWithPointRecord(const std::string &text,
                     std::optional<SimResult> &record)
{
    json::Reader in(text);
    if (in.peek() != json::Value::Kind::Object)
        fatal("expected a JSON object holding a point record");
    std::vector<json::Value::Member> members;
    std::string key;
    in.beginObject();
    while (in.nextMember(key)) {
        if (key != "result") {
            members.emplace_back(std::move(key), in.readValue());
        } else if (record.has_value()) {
            fatal("point record: member 'result' repeats");
        } else {
            record = readPointRecord(in);
        }
    }
    in.finish();
    return json::Value::makeObject(std::move(members));
}

} // namespace serve
} // namespace drsim
