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
 * The memory tier is deliberately eviction-free: a point record is a
 * few kilobytes, so even a hundred-thousand-point campaign stays in
 * the hundreds of megabytes, and serving "never simulate the same
 * point twice" from memory is the whole purpose of the daemon.
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
    SimResult result;
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
