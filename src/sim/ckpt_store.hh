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
 * configs, across budgets and across threads of one process.
 *
 * Keys deliberately exclude every CoreConfig field: the snapshots are
 * purely architectural, so two different machine configurations of
 * the same workload and sampling spec share entries.  A key is
 *
 *     (workload name, programDigest, interval, window, warmup)
 *
 * canonicalized to text.
 *
 * Functional warming is live-point style: beside each plan the
 * library keeps, per warm key (WarmKey — the few CoreConfig fields the
 * warming replay reads), every window's WarmState — the cache tag
 * state and predictor image that replaying the window's whole gap
 * leaves at the detail start.  One functional pass per (plan, warm
 * key) produces them; a window task then restores a snapshot and a
 * warm state instead of replaying its gap.
 *
 * Plans and warm states live in memory only, each in a coalescing
 * MemoryTier (common/content_store.hh): concurrent requests for one
 * key run one generation and share its result.  Nothing persists
 * across processes: regenerating a plan or a warm pass costs a few
 * milliseconds per workload at every scale drsim runs, and a warm
 * state takes about 12 KB per window to keep.
 */

#ifndef DRSIM_SIM_CKPT_STORE_HH
#define DRSIM_SIM_CKPT_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/content_store.hh"
#include "core/processor.hh"
#include "workloads/emulator.hh"

namespace drsim {

class Program;
struct SamplingConfig;

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

/** Canonical key text for @p key. */
std::string ckptKeyText(const CkptKey &key);

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
 * The CoreConfig fields functional warming reads: a window's
 * WarmState is a function of these, the plan and the program alone.
 * Lockup and lockup-free data caches warm identically, so only
 * "perfect or not" of CoreConfig::cacheKind matters; timing fields of
 * the caches (latencies, MSHRs, write buffer) are never touched by
 * warming.
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
};

/** The warm key of @p config. */
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
     * An empty library.  @p retired_dir is the retired disk-tier
     * directory: it must be empty, and anything else is fatal().
     * Kept only so existing callers of CkptStore("") compile; it goes
     * away with them.
     */
    explicit CkptStore(const std::string &retired_dir = "");

    /** Provenance of one acquire() (phase-timing telemetry). */
    struct AcquireOutcome
    {
        std::shared_ptr<const SampleCkpts> plan;
        /** Snapshots produced by functional emulation. */
        std::uint64_t generated = 0;
        /** Whole plan was already resident in memory. */
        bool fromMemory = false;
        /** Waited for a concurrent generation of the same key. */
        bool coalesced = false;
    };

    /**
     * Return the checkpointed plan for @p key, generating it (once,
     * coalesced across concurrent callers) if it is not resident.
     * @p program must be the program @p key.digest was computed from.
     */
    AcquireOutcome acquire(const CkptKey &key, const Program &program);

    /**
     * The warm states of @p plan — the plan acquire(@p key) returned —
     * under @p warm, generated once per (plan, warm key) and coalesced
     * across concurrent callers.
     */
    std::shared_ptr<const WarmStates>
    acquireWarm(const CkptKey &key, const SampleCkpts &plan,
                const Program &program, const WarmKey &warm);

    struct Stats
    {
        /** Plans generated by emulation. */
        std::uint64_t generated = 0;
        /** acquire() calls that waited on a concurrent generation. */
        std::uint64_t coalesced = 0;
        /** acquire() calls served from memory (coalesced included). */
        std::uint64_t memoryHits = 0;
        /** Functional warming passes run by acquireWarm(). */
        std::uint64_t warmPasses = 0;
    };
    Stats stats() const;

  private:
    using Memory = MemoryTier<SampleCkpts>;

    Memory memory_;
    MemoryTier<WarmStates> warm_;
};

/** The process-global checkpoint library the sampling driver uses. */
CkptStore &ckptLibrary();

/** Build the key for @p program under @p sampling. */
CkptKey ckptKeyFor(const std::string &workload,
                   const Program &program,
                   const SamplingConfig &sampling);

} // namespace drsim

#endif // DRSIM_SIM_CKPT_STORE_HH
