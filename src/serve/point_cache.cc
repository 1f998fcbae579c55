#include "serve/point_cache.hh"

#include <cstdlib>
#include <sstream>

#include "common/env.hh"
#include "common/json.hh"
#include "serve/result_io.hh"
#include "workloads/digest.hh"
#include "workloads/program.hh"

namespace drsim {
namespace serve {

namespace {

/** Bump on any result-affecting simulator change (docs/SERVER.md).
 *  v2: sampled runs moved to the checkpoint-restored window-parallel
 *  driver (DESIGN.md §5j), which changes sampled statistics.
 *  v3: pluggable predictor backends + result-bus arbitration grew
 *  the stall taxonomy to 14 buckets (DESIGN.md §5k); pre-v3 records
 *  carry 13-entry cause_cycles vectors. */
constexpr const char *kBuiltinRev = "sim-v3";

} // namespace

std::string
pointCacheRev()
{
    const char *env = std::getenv("DRSIM_CACHE_REV");
    if (env != nullptr && env[0] != '\0')
        return env;
    return kBuiltinRev;
}

std::string
pointKeyText(const PointKey &key, const std::string &rev)
{
    const CoreConfig &c = key.config;
    std::ostringstream os;
    const auto cacheLine = [&os](const char *name,
                                 const CacheConfig &cc) {
        os << name << "=size:" << cc.sizeBytes
           << ",assoc:" << cc.assoc << ",line:" << cc.lineBytes
           << ",hit:" << cc.hitLatency << ",miss:" << cc.missPenalty
           << ",mshrs:" << cc.maxOutstandingMisses
           << ",wb_entries:" << cc.writeBufferEntries
           << ",wb_drain:" << cc.writeBufferDrainCycles << "\n";
    };
    os << "drsim-point-v" << kPointRecordVersion << "\n"
       << "rev=" << rev << "\n"
       << "workload=" << key.workload << "\n"
       << "program_digest=" << key.digest << "\n"
       << "issue_width=" << c.issueWidth << "\n"
       << "dq_size=" << c.dqSize << "\n"
       << "num_phys_regs=" << c.numPhysRegs << "\n"
       << "exception_model=" << exceptionModelName(c.exceptionModel)
       << "\n"
       << "predictor=" << c.predictor << "\n"
       << "result_buses=" << c.resultBuses << "\n"
       << "cache_kind=" << cacheKindName(c.cacheKind) << "\n";
    cacheLine("dcache", c.dcache);
    cacheLine("icache", c.icache);
    os << "perfect_icache=" << int(c.perfectICache) << "\n"
       << "in_order_branches=" << int(c.inOrderBranches) << "\n"
       << "speculative_history_update="
       << int(c.speculativeHistoryUpdate) << "\n"
       << "store_to_load_forwarding="
       << int(c.storeToLoadForwarding) << "\n"
       << "split_dispatch_queues=" << int(c.splitDispatchQueues)
       << "\n"
       << "max_committed=" << c.maxCommitted << "\n"
       << "deadlock_cycles=" << c.deadlockCycles << "\n"
       << "audit_interval=" << c.auditInterval << "\n"
       << "collect_live_histograms=" << int(c.collectLiveHistograms)
       << "\n"
       << "collect_occupancy_histograms="
       << int(c.collectOccupancyHistograms) << "\n"
       << "sampling_interval=" << c.sampling.interval << "\n"
       << "sampling_window=" << c.sampling.window << "\n"
       << "sampling_warmup=" << c.sampling.warmup << "\n"
       << "sampling_warmff=" << c.sampling.warmff << "\n";
    return os.str();
}

PointCache::PointCache(std::string dir, std::string rev,
                       std::uint64_t max_bytes)
    : rev_(std::move(rev)),
      store_(std::move(dir),
             max_bytes == ~std::uint64_t{0}
                 ? envU64("DRSIM_CACHE_MAX_BYTES", 0)
                 : max_bytes,
             "cache")
{
}

std::string
PointCache::entryPath(const PointKey &key) const
{
    return store_.path(fnv1aHex(pointKeyText(key, rev_)), ".json");
}

std::optional<SimResult>
PointCache::load(const PointKey &key)
{
    const std::string keyText = pointKeyText(key, rev_);
    std::optional<SimResult> result;
    store_.load(fnv1aHex(keyText), ".json",
                [&](const std::string &bytes) -> std::string {
                    std::optional<SimResult> record;
                    const json::Value doc =
                        parseWithPointRecord(bytes, record);
                    if (doc.at("drsim_cache").asU64() != 1)
                        return "not a v1 cache envelope";
                    if (doc.at("key").asString() != keyText)
                        return "key text mismatch (hash collision or "
                               "stale generator)";
                    if (!record.has_value())
                        return "no result record";
                    result = std::move(record);
                    return "";
                });
    return result;
}

void
PointCache::store(const PointKey &key, const SimResult &result)
{
    const std::string keyText = pointKeyText(key, rev_);
    const std::string hash = fnv1aHex(keyText);

    json::Writer w;
    w.beginObject();
    w.key("drsim_cache").value(1);
    w.key("computed_at_rev").value(rev_);
    w.key("key_hash").value(hash);
    w.key("key").value(keyText);
    writePointRecord(w.key("result"), result);
    w.endObject();
    if (store_.publish(hash, ".json", w.str() + "\n"))
        store_.trim();
}

} // namespace serve
} // namespace drsim
