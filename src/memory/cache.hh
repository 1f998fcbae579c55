/**
 * @file
 * Data-cache models (paper Section 2.1).
 *
 * Three organizations, selectable per run:
 *  - Perfect: every load hits (the paper's "perfect cache" baseline).
 *  - Lockup: a blocking cache — while a miss is outstanding no other
 *    load may issue.
 *  - LockupFree: an inverted-MSHR organization [Farkas & Jouppi 1994]
 *    that supports as many in-flight misses as there are destination
 *    registers; misses to a line already being fetched merge onto the
 *    outstanding fetch.
 *
 * Common fixed parameters (configurable): 64 KB, 2-way set
 * associative, 32-byte lines, 1-cycle hit latency, 16-cycle constant
 * fetch latency.  Loads additionally see the machine's single
 * load-delay slot (applied here as +1 cycle of load-use latency).
 * Stores are write-through/write-around via a write buffer that
 * consumes no bandwidth and never stalls (paper Section 2.1), so the
 * store path only touches the tag state for write-hit LRU updates.
 *
 * When a misprediction squashes every load waiting on an in-flight
 * fetch, the fetch is cancelled and the block is not written into the
 * cache (paper Section 2.2); if any merged load survives, the fill
 * proceeds.
 */

#ifndef DRSIM_MEMORY_CACHE_HH
#define DRSIM_MEMORY_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace drsim {

enum class CacheKind : std::uint8_t { Perfect, Lockup, LockupFree };

const char *cacheKindName(CacheKind kind);
/** The kind cacheKindName() names @p name, or nullopt. */
std::optional<CacheKind> cacheKindFromName(const std::string &name);

struct CacheConfig
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;
    Cycle hitLatency = 1;
    Cycle missPenalty = 16; ///< constant fetch latency

    /**
     * Extension beyond the paper: bound the number of outstanding
     * misses a lockup-free cache supports (0 = the paper's inverted
     * MSHR, as many as there are destination registers).  Sweeping
     * this bridges the design space between the lockup and
     * lockup-free organizations (bench/ext_mshr).
     */
    std::uint32_t maxOutstandingMisses = 0;

    /**
     * Extension beyond the paper: a finite write buffer.  The paper
     * assumes retiring stores consume no memory bandwidth and never
     * stall; with a nonzero entry count, one buffered store drains
     * every writeBufferDrainCycles and a committing store stalls
     * commit while the buffer is full (bench/ext_writebuffer).
     */
    std::uint32_t writeBufferEntries = 0; ///< 0 = unlimited (paper)
    Cycle writeBufferDrainCycles = 4;

    /** Why this geometry cannot be built, or nullptr: the line size
     *  and set count must be powers of two, the associativity > 0.
     *  validate() and checkCoreConfig()'s geometry rules read it. */
    const char *geometryError() const;
    void validate() const;

    /** Memberwise equality (needed by CoreConfig's). */
    bool operator==(const CacheConfig &) const = default;
};

/**
 * One valid line of a functionally warmed cache (DESIGN.md §5j): its
 * place in the set-major line array, its tag, and its recency rank
 * within its set (0 = least recently used).  A cache's warm
 * state is the list of its valid lines; every other line is invalid,
 * so a cold cache is the empty list.
 */
struct WarmLine
{
    std::uint32_t index = 0;
    std::uint32_t rank = 0;
    Addr tag = 0;

    bool operator==(const WarmLine &) const = default;
};

using CacheWarmState = std::vector<WarmLine>;

/** The tag state of one cache line: the least a TagArray line holds. */
struct TagLine
{
    bool valid = false;
    Addr tag = 0;
    Cycle lastUsed = 0;

    /** A busy line is never a victim; a plain tag line never is busy. */
    bool busy() const { return false; }
};

/**
 * A set-associative tag array with LRU replacement: the geometry, the
 * set/tag split, lookup, victim choice and warm-state capture that
 * both caches, timed and functionally warmed alike, train through
 * (DESIGN.md §5j).  @p Line extends TagLine.  The member bodies live
 * in cache.cc, the only file that calls them.
 */
template <typename Line>
class TagArray
{
  public:
    explicit TagArray(const CacheConfig &config);

    std::uint32_t setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;

    Line &
    at(std::uint32_t set, std::uint32_t way)
    {
        return lines_[std::size_t(set) * assoc_ + way];
    }

    /** The valid line holding @p addr, or nullptr. */
    Line *find(Addr addr);
    /**
     * The way of @p set a fill takes: the first invalid way, else the
     * least recently used one, never a busy() one (the associativity
     * when every way is busy).
     */
    std::uint32_t victim(std::uint32_t set) const;
    /**
     * Touch-or-fill at recency @p stamp: a hit refreshes the line, a
     * miss fills the victim (unless every way is busy).  True on a hit.
     */
    bool touch(Addr addr, Cycle stamp);

    /**
     * The valid lines, each with its recency rank within its set:
     * the warmed LRU order, below any cycle number a detailed run
     * will produce.  A pure read.
     */
    CacheWarmState warmState() const;
    /** Overlay @p state on a never-touched array. */
    void restoreWarmState(const CacheWarmState &state);

  private:
    std::uint32_t lineBytes_;
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::vector<Line> lines_; ///< numSets_ x assoc_, set-major
};

/** Outcome of issuing a load to the data cache. */
struct LoadResult
{
    /** False when the cache refused the load this cycle (every MSHR
     *  in use); the load must retry later. */
    bool accepted = true;
    bool hit = false;    ///< serviced from the array
    bool merged = false; ///< attached to an in-flight fetch
    /** Cycle from which a dependent may source the loaded register. */
    Cycle readyCycle = 0;
    /** Fetch the load depends on (-1 when it hit). */
    std::int64_t fetchId = -1;
};

struct DCacheStats
{
    std::uint64_t loads = 0;
    std::uint64_t loadMisses = 0;      ///< misses that started a fetch
    std::uint64_t loadMerges = 0;      ///< misses merged onto a fetch
    std::uint64_t storesBuffered = 0;  ///< stores retired to the buffer
    std::uint64_t storeHits = 0;       ///< stores that updated a line
    std::uint64_t fetchesCancelled = 0;
    std::uint64_t mshrRejections = 0;  ///< loads refused: MSHRs full

    /**
     * Paper "load miss rate": primary (fetch-initiating) misses over
     * loads.  Merges are secondary misses serviced by an outstanding
     * fetch (inverted-MSHR delayed hits) and are reported separately —
     * counting them would drive any streaming kernel to ~100%.
     */
    double
    loadMissRate() const
    {
        return loads == 0 ? 0.0
                          : double(loadMisses) / double(loads);
    }

    /** Accumulate @p other into this: every counter adds. */
    void merge(const DCacheStats &other);
};

class DataCache
{
  public:
    DataCache(CacheKind kind, const CacheConfig &config);

    CacheKind kind() const { return kind_; }
    const CacheConfig &config() const { return config_; }

    /**
     * May a load issue at @p now?  False only for the lockup cache
     * while a miss is outstanding.
     */
    bool loadCanIssue(Cycle now) const;

    /**
     * Issue the load with unique id @p uid for address @p addr at
     * cycle @p now.  May start or merge onto a block fetch.
     */
    LoadResult load(Addr addr, Cycle now, InstUid uid);

    /** A committed store reaches the cache / write buffer at @p now.
     *  Call only when storeCanCommit(now) is true. */
    void storeCommit(Addr addr, Cycle now);

    /** False while a finite write buffer is full (commit must stall,
     *  the situation the paper's free write buffer assumes away). */
    bool storeCanCommit(Cycle now);

    /**
     * The load @p uid waiting on @p fetch_id was squashed at @p now.
     * Cancels the fetch (and the block fill) if no waiter remains and
     * the block has not yet been written.
     */
    void squashLoad(std::int64_t fetch_id, InstUid uid, Cycle now);

    const DCacheStats &stats() const { return stats_; }

    /** Load-use latency of a hit (hit latency + load-delay slot). */
    Cycle hitUseLatency() const { return config_.hitLatency + 1; }

    /// @name Functional warming (sampled-mode gap replay, DESIGN.md §5j)
    /// @{
    /**
     * Touch the tag state for a fast-forwarded load: hit updates the
     * recency, miss fills the LRU victim immediately.  No stats, no
     * MSHR/timing state; call only before the machine has run.
     */
    void warmLoad(Addr addr);
    /** Fast-forwarded store: write-around, so recency update only. */
    void warmStore(Addr addr);
    /**
     * The tag state, with recency rebased to per-set ranks below every
     * real cycle number: a restored cache's LRU decisions see the
     * warmed ordering but never prefer a warm line over a line the
     * detailed run touched itself.  A pure read; warming may go on.
     */
    CacheWarmState warmState() const;
    /**
     * Load a warmState() into a cache that has not run: afterwards it
     * is indistinguishable from the cache that state was taken from.
     */
    void restoreWarmState(const CacheWarmState &state);
    /// @}

  private:
    struct Line : TagLine
    {
        /** Cycle at which the block is present (fills complete late). */
        Cycle validFrom = 0;
        /** In-flight fetch filling this line (-1 when none). */
        std::int64_t fetchId = -1;

        /** Mid-fill: never evicted. */
        bool busy() const { return fetchId >= 0; }
    };

    struct Fetch
    {
        std::int64_t id;
        std::uint32_t set;
        std::uint32_t way;
        Cycle fillAt;
        std::vector<InstUid> waiters;
    };

    void pruneFetches(Cycle now);
    void drainWriteBuffer(Cycle now);

    CacheKind kind_;
    CacheConfig config_;
    TagArray<Line> tags_;

    std::unordered_map<std::int64_t, Fetch> fetches_;
    std::int64_t nextFetchId_ = 0;
    Cycle lockupBusyUntil_ = 0;
    /** Finite-write-buffer occupancy and last drain time. */
    std::uint32_t wbOccupancy_ = 0;
    Cycle wbLastDrain_ = 0;
    /** Monotonic warm-touch order. */
    Cycle warmTick_ = 0;
    DCacheStats stats_;
};

/**
 * Instruction cache: 64 KB 2-way with a fixed 16-cycle miss penalty
 * (paper: "the instruction cache has a fixed miss penalty"; measured
 * SPEC92 miss rates were under 1%, and the synthetic kernels are
 * small loops, so this is nearly always a hit).
 */
class InstCache
{
  public:
    explicit InstCache(const CacheConfig &config);

    /**
     * Fetch touches the line holding @p pc at @p now; returns the
     * cycle from which instructions in that line may be inserted
     * (== @p now on a hit).
     */
    Cycle fetch(Addr pc, Cycle now);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    /** Functional warming: touch without stats (see DataCache). */
    void warmFetch(Addr pc);
    /** Warm tag state save/restore (see DataCache). */
    CacheWarmState warmState() const;
    void restoreWarmState(const CacheWarmState &state);

  private:
    CacheConfig config_;
    TagArray<TagLine> tags_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    Cycle warmTick_ = 0;
};

} // namespace drsim

#endif // DRSIM_MEMORY_CACHE_HH
