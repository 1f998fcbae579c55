/**
 * @file
 * The content-addressed checkpoint library (DESIGN.md §5j).
 *
 * Architectural fast-forward is config-independent: every sweep point
 * of a (workload, sampling plan) pair replays the *identical*
 * functional emulation before each measured window.  The library
 * computes that emulation once, snapshots the EmuArchState at every
 * interval boundary (the detail start of each period's detailed
 * phase, plus the architectural end of the program), and serves the
 * snapshots to every subsequent sampled run of the same key — across
 * configs, across budgets, across threads, and (with DRSIM_CKPT_DIR
 * set) across processes.
 *
 * Keys deliberately exclude every CoreConfig field: the snapshots are
 * purely architectural, so two different machine configurations of
 * the same workload and sampling spec share entries.  A key is
 *
 *     (library rev, workload name, programDigest, interval, window,
 *      warmup)
 *
 * canonicalized to text and FNV-1a hashed.  The functional-warming
 * horizon (warmff) is not in it: it moves no detail start.
 *
 * Functional warming is live-point style: beside each plan the
 * library keeps, per warm key (WarmKey — the few CoreConfig fields the
 * warming replay reads, plus warmff), every window's WarmState — the
 * cache tag state and predictor image that replaying the warming
 * stretch leaves at the detail start.  One functional pass per
 * (plan, warm key) produces them; a window task then restores a
 * snapshot and a warm state instead of replaying its gap.  Warm
 * states live only in the memory tier: they cost a few milliseconds
 * per workload to regenerate and about 12 KB per window to keep.
 *
 * On-disk layout under DRSIM_CKPT_DIR:
 *
 *     <dir>/<hh>/<hash>.json           meta: key text, arch length,
 *                                      checkpointed detail starts
 *     <dir>/<hh>/<hash>.p<pos>.bin     one EmuArchState per position
 *
 * Storage is the shared content-addressed store's
 * (common/content_store.hh): its memory tier coalesces concurrent
 * generation of one key, and DRSIM_CKPT_MAX_BYTES trims the directory
 * once after each generated plan.  This module owns the key text and
 * the two encodings.  Every .bin carries the snapshot's
 * archStateHash(), validated on load; a corrupt or missing snapshot
 * is recomputed from the nearest earlier good checkpoint (or reset)
 * and re-stored, so corruption can cost time, never correctness.
 */

#ifndef DRSIM_SIM_CKPT_STORE_HH
#define DRSIM_SIM_CKPT_STORE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/content_store.hh"
#include "core/processor.hh"
#include "workloads/emulator.hh"

namespace drsim {

class Program;
struct SamplingConfig;

/**
 * Checkpoint library code version, folded into every key.  Bump when
 * the snapshot format or the interval-boundary placement changes;
 * DRSIM_CKPT_REV overrides it (invalidation tests, operators pinning
 * a library).
 */
std::string ckptRev();

/** The inputs identifying one checkpointed sampling plan. */
struct CkptKey
{
    /** Workload name (provenance only; the digest is authoritative). */
    std::string workload;
    /** programDigest() of the built program (workloads/digest.hh). */
    std::string digest;
    /** The sampling stride plan (SamplingConfig fields). */
    std::uint64_t interval = 0;
    std::uint64_t window = 0;
    std::uint64_t warmup = 0;
};

/** Canonical key text for @p key at library version @p rev. */
std::string ckptKeyText(const CkptKey &key, const std::string &rev);

struct SampleCkpts;

/**
 * Generate the full plan for @p key from scratch, with no caching:
 * the store's generation backend, and (called directly) the
 * library-disabled baseline path of the simspeed experiment.
 */
SampleCkpts generateSampleCkpts(const CkptKey &key,
                                const Program &program);

/**
 * The checkpointed sampling plan for one key: the program's
 * architectural length and a snapshot at the *detail start* of every
 * detailed phase after the first (position 0 needs no snapshot — it
 * is reset state), plus one at the architectural end (the tail task's
 * restore point; shared with a detail start the program halts at).
 * Positions are deterministic functions of the sampling spec and the
 * program alone — budget- and config-independent — which is what
 * makes the entries reusable across a whole sweep.
 */
struct SampleCkpts
{
    /** Instructions before the Halt (committing it makes the full-run
     *  committed count archLength + 1). */
    std::uint64_t archLength = 0;
    /** Ascending checkpointed positions; the last equals archLength,
     *  and every earlier one is a detail start. */
    std::vector<std::uint64_t> positions;
    /** Snapshot at positions[i]. */
    std::vector<EmuArchState> states;

    /** Snapshot at exactly @p pos, or nullptr if not checkpointed. */
    const EmuArchState *stateAt(std::uint64_t pos) const;
};

/**
 * The CoreConfig fields functional warming reads, plus the warming
 * horizon: a window's WarmState is a function of these, the plan and
 * the program alone.  Lockup and lockup-free data caches warm
 * identically, so only "perfect or not" of CoreConfig::cacheKind
 * matters; timing fields of the caches (latencies, MSHRs, write
 * buffer) are never touched by warming.
 */
struct WarmKey
{
    /** A perfect data cache keeps no tag state. */
    bool perfectDCache = false;
    /** Geometry (sizeBytes, assoc, lineBytes) of each cache. */
    std::uint32_t dcacheSize = 0;
    std::uint32_t dcacheAssoc = 0;
    std::uint32_t dcacheLine = 0;
    std::uint32_t icacheSize = 0;
    std::uint32_t icacheAssoc = 0;
    std::uint32_t icacheLine = 0;
    /** CoreConfig::predictor. */
    std::string predictor;
    /** SamplingConfig::warmff: warm the last min(warmff, gap)
     *  instructions of each gap (the whole gap when 0). */
    std::uint64_t warmff = 0;
};

/** The warm key of @p config (its sampling spec's warmff included). */
WarmKey warmKeyFor(const CoreConfig &config);

/** Canonical text of @p key (appended to the plan key's text). */
std::string warmKeyText(const WarmKey &key);

/**
 * Per-window warm states of one (plan, warm key): element i is the
 * machine state at the detail start positions[i], for every position
 * below archLength.
 */
using WarmStates = std::vector<WarmState>;

/**
 * Run the functional warming pass for @p plan (the plan of @p key)
 * under @p warm, with no caching: the store's generation backend,
 * and the library-disabled path of the sampling driver.
 */
WarmStates generateWarmStates(const CkptKey &key,
                              const SampleCkpts &plan,
                              const Program &program,
                              const WarmKey &warm);

class CkptStore
{
  public:
    /**
     * Open a checkpoint store.  An empty @p dir disables the disk
     * tier (the in-memory tier still amortizes generation within the
     * process).  @p max_bytes of ~0 defers to DRSIM_CKPT_MAX_BYTES
     * (0 = unbounded).
     */
    explicit CkptStore(std::string dir, std::string rev = ckptRev(),
                       std::uint64_t max_bytes = ~std::uint64_t{0});

    /** Snapshot-file path for @p key at @p pos ("" when disk off). */
    std::string statePath(const CkptKey &key,
                          std::uint64_t pos) const;

    /** Provenance of one acquire() (phase-timing telemetry). */
    struct AcquireOutcome
    {
        std::shared_ptr<const SampleCkpts> plan;
        /** Snapshots loaded (and hash-validated) from disk. */
        std::uint64_t diskHits = 0;
        /** Snapshots produced by functional emulation. */
        std::uint64_t generated = 0;
        /** Whole plan was already resident in memory. */
        bool fromMemory = false;
        /** Waited for a concurrent generation of the same key. */
        bool coalesced = false;
    };

    /**
     * Return the checkpointed plan for @p key, generating it (once,
     * coalesced across concurrent callers) if neither tier has it.
     * @p program must be the program @p key.digest was computed from.
     */
    AcquireOutcome acquire(const CkptKey &key, const Program &program);

    /**
     * The warm states of @p plan — the plan acquire(@p key) returned —
     * under @p warm, generated once per (plan, warm key) in the memory
     * tier and coalesced across concurrent callers.
     */
    std::shared_ptr<const WarmStates>
    acquireWarm(const CkptKey &key, const SampleCkpts &plan,
                const Program &program, const WarmKey &warm);

    struct Stats
    {
        /** Snapshots served from disk (hash-validated). */
        std::uint64_t hits = 0;
        /** Snapshots that had to be generated by emulation. */
        std::uint64_t misses = 0;
        /** Snapshot/meta files rejected by validation. */
        std::uint64_t corrupt = 0;
        /** Snapshot files written. */
        std::uint64_t stores = 0;
        /** Files removed by the LRU byte cap. */
        std::uint64_t evicted = 0;
        /** Keys generated (fully or partially) by emulation. */
        std::uint64_t generated = 0;
        /** acquire() calls that waited on a concurrent generation. */
        std::uint64_t coalesced = 0;
        /** acquire() calls served from the in-memory tier. */
        std::uint64_t memoryHits = 0;
        /** Functional warming passes run by acquireWarm(). */
        std::uint64_t warmPasses = 0;
    };
    Stats stats() const;

  private:
    using Memory = MemoryTier<SampleCkpts>;

    std::shared_ptr<const SampleCkpts>
    buildPlan(const std::string &key_text, const CkptKey &key,
              const Program &program, AcquireOutcome &out);

    std::string rev_;
    ContentStore disk_;
    Memory memory_;
    MemoryTier<WarmStates> warm_;
    mutable std::mutex mutex_;
    /** hits, misses, stores, generated and memoryHits; the other
     *  counters are disk_'s, memory_'s and warm_'s. */
    Stats stats_;
};

/**
 * The process-global checkpoint library the sampling driver uses,
 * configured from DRSIM_CKPT_DIR / DRSIM_CKPT_MAX_BYTES /
 * DRSIM_CKPT_REV.  The instance is rebuilt (dropping the in-memory
 * tier) when those variables change between calls — tests use this to
 * flip between cold and warm; changing them while simulations are in
 * flight is unsupported.
 */
CkptStore &ckptLibrary();

/** Build the key for @p program under @p sampling. */
CkptKey ckptKeyFor(const std::string &workload,
                   const Program &program,
                   const SamplingConfig &sampling);

} // namespace drsim

#endif // DRSIM_SIM_CKPT_STORE_HH
