/**
 * @file
 * The sweep service: cached, coalesced, pooled point execution.
 *
 * This is the layer between the wire protocol (server.hh) and the
 * simulator: callers hand it points (PointKey + built workload) and a
 * callback; the service answers each point from the memory tier, then
 * the on-disk PointCache, and only then by simulating on its worker
 * pool.  The memory tier (MemoryTier, common/content_store.hh) makes
 * identical concurrent requests cost one simulation: the first owns
 * the pool task and the rest are queued behind it (DESIGN.md §5g).
 * A failed disk store still delivers the point and keeps it in
 * memory; only a failed load or simulation is a point error.
 *
 * Every delivery of a point shares the one resident SimResult
 * (PointOutcome::result); a memory hit copies no histogram.
 *
 * The memory tier is deliberately eviction-free: serving "never
 * simulate the same point twice" from memory is the whole purpose of
 * the daemon.  It is not small.  At scale 2 a point record is 26 KB
 * at the median of a served stream and 63 KB on average over fig7's
 * width-4/8 configs; at scale 3 the largest tomcatv records reach
 * 1.37 MB, and a resident SimResult is about four times its record
 * (dense lifetime histograms).  A cap on this tier has to count the
 * resident results, not the record bytes.
 */

#ifndef DRSIM_SERVE_SERVICE_HH
#define DRSIM_SERVE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/content_store.hh"
#include "common/thread_pool.hh"
#include "serve/point_cache.hh"

namespace drsim {
namespace serve {

/** What happened to one requested point. */
struct PointOutcome
{
    /** Empty on success; a FatalError message otherwise. */
    std::string error;
    /** Null on error.  Built once per computed or loaded point; the
     *  memory tier and every delivery of the point share it. */
    std::shared_ptr<const SimResult> result;
    /** Served from the memory map or the disk cache (no simulation
     *  ran for this delivery). */
    bool cacheHit = false;
    /** Rode on a computation another request had already started. */
    bool coalesced = false;
    /** Code version that produced the result (cache provenance). */
    std::string rev;

    bool ok() const { return error.empty(); }
};

using PointCallback = std::function<void(const PointOutcome &)>;

class SweepService
{
  public:
    /** @p jobs must already be resolved (resolveJobs); the pool size
     *  is fixed for the service's lifetime. */
    SweepService(std::string cacheDir, int jobs);
    ~SweepService();

    int jobs() const { return jobs_; }
    PointCache &cache() { return cache_; }

    /**
     * Request one point.  @p workload must be the built program the
     * key's digest was computed from; the shared_ptr keeps it alive
     * until the (possibly deferred) computation finishes.  @p cb is
     * invoked exactly once — inline on a memory hit, else on a worker
     * thread — and must not call back into requestPoint recursively
     * with unbounded depth (socket writes and queue pushes are the
     * intended use).
     */
    void requestPoint(const PointKey &key,
                      std::shared_ptr<const Workload> workload,
                      PointCallback cb);

    /** Synchronous convenience for tests and in-process callers. */
    PointOutcome runPoint(const PointKey &key,
                          const Workload &workload);

    struct Stats
    {
        std::uint64_t points = 0;      ///< requestPoint calls
        std::uint64_t memoryHits = 0;
        std::uint64_t diskHits = 0;
        std::uint64_t computed = 0;    ///< simulations actually run
        std::uint64_t coalesced = 0;   ///< waiters that shared a run
        std::uint64_t errors = 0;
        std::uint64_t inFlight = 0;    ///< points being computed now
    };
    Stats stats() const;

  private:
    /** Each point's first successful outcome, by key text. */
    using Memory = MemoryTier<PointOutcome>;

    void completePoint(const std::string &keyText, const PointKey &key,
                       const Workload &workload);

    int jobs_;
    PointCache cache_;
    Memory memory_;
    mutable std::mutex mutex_;
    /** points, diskHits, computed and errors; the other counters are
     *  memory_'s. */
    Stats stats_;
    /** Last member: destroying the pool drains queued tasks, which
     *  still touch every field above. */
    ThreadPool pool_;
};

} // namespace serve
} // namespace drsim

#endif // DRSIM_SERVE_SERVICE_HH
