/**
 * @file
 * The content-addressed sweep-point cache (docs/SERVER.md, "On-disk
 * cache layout").
 *
 * A *point* is one (CoreConfig, workload program, code version)
 * simulation — the unit the experiment registry proved to be a pure
 * function (every knob that reaches the simulator is in CoreConfig,
 * and a workload program is fully determined by its builder inputs).
 * The cache maps a canonical textual serialization of those inputs
 * (the *key text*) through a 64-bit FNV-1a hash to one JSON envelope
 * file under the cache directory, <dir>/<hh>/<hash>.json.  The
 * envelope stores the *full* key text next to the result, and load()
 * verifies it against the requested key, so a hash collision degrades
 * to a cache miss instead of serving a wrong result, and a truncated
 * or hand-edited file degrades to a recompute instead of a crash.
 *
 * The program coordinate is a content digest of the built guest
 * program (instructions + initial data image), not a (name, scale)
 * pair: if a kernel generator changes, its digests change and every
 * stale entry silently misses.  The simulator code version
 * (pointCacheRev()) is likewise part of the key text, so bumping it
 * retires the entire cache at once — see docs/SERVER.md for the
 * invalidation rules.
 *
 * Storage — the fan-out path, atomic publish, corrupt-entry recovery,
 * the LRU byte cap and the never-fatal write policy — is the shared
 * content-addressed store's (common/content_store.hh); this module
 * owns only the key text and the envelope encoding.
 */

#ifndef DRSIM_SERVE_POINT_CACHE_HH
#define DRSIM_SERVE_POINT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/content_store.hh"
#include "core/config.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace serve {

/**
 * Simulator code version folded into every cache key.  Bump whenever
 * a change alters simulation *results* (scheduling, stats, workload
 * builders, …); pure refactors that the bit-identity test suites
 * prove result-neutral keep it.  DRSIM_CACHE_REV overrides it (used
 * by the invalidation tests and by operators pinning a cache).
 */
std::string pointCacheRev();

/** The inputs identifying one cacheable point. */
struct PointKey
{
    CoreConfig config;
    /** Workload name (provenance only; the digest is authoritative). */
    std::string workload;
    /** programDigest() of the built program (workloads/digest.hh). */
    std::string digest;
};

/**
 * Canonical key text for @p key at code version @p rev: one line per
 * field, every CoreConfig member that can affect results.
 */
std::string pointKeyText(const PointKey &key, const std::string &rev);

class PointCache
{
  public:
    /**
     * Open (and lazily create) the cache rooted at @p dir.
     * @p max_bytes caps the cache's on-disk footprint: after every
     * store, least-recently-used entries (mtime order; loads touch
     * their entry) are evicted until the directory fits.  The default
     * of ~0 defers to DRSIM_CACHE_MAX_BYTES, with 0 (also the
     * variable's default) meaning unbounded.
     */
    explicit PointCache(std::string dir,
                        std::string rev = pointCacheRev(),
                        std::uint64_t max_bytes = ~std::uint64_t{0});

    const std::string &dir() const { return store_.dir(); }
    const std::string &rev() const { return rev_; }

    /** Envelope file path for @p key (exists or not). */
    std::string entryPath(const PointKey &key) const;

    /**
     * Look up @p key.  Returns the cached result, or std::nullopt on
     * a miss — including a corrupt, truncated, version-skewed, or
     * key-colliding entry, which is warned about, unlinked, and
     * counted in stats().corrupt so the caller simply recomputes.
     */
    std::optional<SimResult> load(const PointKey &key);

    /** Persist @p result under @p key.  A write failure is warned
     *  about and leaves the entry unstored (stats().stores does not
     *  count it); it never fails the caller. */
    void store(const PointKey &key, const SimResult &result);

    /** hits, misses, corrupt (unlinked as unusable), stores (entries
     *  written) and evicted (removed by the LRU byte cap). */
    using Stats = ContentStore::Stats;
    Stats stats() const { return store_.stats(); }

  private:
    std::string rev_;
    ContentStore store_;
};

} // namespace serve
} // namespace drsim

#endif // DRSIM_SERVE_POINT_CACHE_HH
