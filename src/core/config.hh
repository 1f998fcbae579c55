/**
 * @file
 * Machine configuration (paper Section 2).
 */

#ifndef DRSIM_CORE_CONFIG_HH
#define DRSIM_CORE_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "memory/cache.hh"

namespace drsim {

/** Register-freeing discipline (paper Section 2.2). */
enum class ExceptionModel : std::uint8_t {
    /** Free a mapping when its retiring writer commits. */
    Precise,
    /** Free a mapping as soon as the writer and all users have
     *  completed and a later writer of the same virtual register has
     *  completed with all of its preceding branches complete. */
    Imprecise,
};

const char *exceptionModelName(ExceptionModel model);
/** The model exceptionModelName() names @p name, or nullopt. */
std::optional<ExceptionModel>
exceptionModelFromName(const std::string &name);

/**
 * SMARTS-style interval sampling (see DESIGN.md §5h).  All lengths
 * are architectural instruction counts.  Each sampling period of
 * @ref interval instructions is split into a functional fast-forward
 * of (interval - warmup - window), a detailed but histogram-gated
 * warm-up of @ref warmup, and a measured window of @ref window whose
 * commit IPC contributes one sample to the estimate.  The whole
 * fast-forward is replayed through the configuration's caches and
 * branch predictor, so every detailed phase starts warm (DESIGN.md
 * §5j).  interval == 0 disables sampling (full-detail run, the
 * default).
 */
struct SamplingConfig
{
    /** Period length; 0 = sampling off. */
    std::uint64_t interval = 0;
    /** Measured-window length per period. */
    std::uint64_t window = 0;
    /** Detailed warm-up before each measured window. */
    std::uint64_t warmup = 0;

    bool enabled() const { return interval != 0; }

    /**
     * True when warmup + window is shorter than the interval, so every
     * period fast-forwards something.  Compares with what the interval
     * leaves instead of forming the sum, which may wrap.
     */
    bool
    leavesFastForward() const
    {
        return warmup < interval && window < interval - warmup;
    }

    bool operator==(const SamplingConfig &) const = default;
};

struct CoreConfig
{
    /** Maximum instructions issued per cycle (4 or 8 in the paper). */
    int issueWidth = 4;

    /** Dispatch-queue entries (paper sweeps 8..256). */
    int dqSize = 32;

    /** Physical registers per file (equal integer and FP counts). */
    int numPhysRegs = 2048;

    ExceptionModel exceptionModel = ExceptionModel::Precise;

    /** Branch-predictor backend, keyed into makeBranchPredictor():
     *  "mcfarling" (the paper's combined predictor, default),
     *  "bimodal", "gshare", or "tage" (DESIGN.md §5k). */
    std::string predictor = "mcfarling";

    /** Result (writeback) buses: register-writing completions in the
     *  same cycle beyond this count are deferred a cycle, oldest
     *  first (CDB structural hazard).  0 = unlimited, the paper's
     *  model and the default. */
    int resultBuses = 0;

    /** Data-cache organization. */
    CacheKind cacheKind = CacheKind::LockupFree;
    CacheConfig dcache;
    CacheConfig icache;
    /** Model every instruction fetch as a hit (the paper holds the
     *  I-cache constant with miss rates under 1%; useful for
     *  microbenchmarks whose straight-line code would otherwise be
     *  dominated by cold I-misses). */
    bool perfectICache = false;

    /// @name Ablation knobs (paper-adjacent design alternatives)
    /// @{
    /** Execute conditional branches in program order.  The paper
     *  reports trying this: prediction accuracy improves somewhat but
     *  commit IPC drops notably, so its model (and our default) lets
     *  branches execute out of order. */
    bool inOrderBranches = false;

    /** Update the predictor's global-history register speculatively at
     *  dispatch-queue insert with repair on mispredict (the paper's
     *  scheme, default) vs. only at branch execution. */
    bool speculativeHistoryUpdate = true;

    /** Allow loads to forward from an older, resolved, same-address
     *  store in the non-merging store buffer (default).  When off, a
     *  load waits until the matching store commits. */
    bool storeToLoadForwarding = true;

    /** Split the unified dispatch queue into per-class queues (as the
     *  MIPS R10000 does: integer+control / floating-point / memory),
     *  dividing dqSize 2:1:1 between them.  Insert stalls when the
     *  *target* queue is full, so an unbalanced instruction mix
     *  suffers head-of-line blocking the paper's single queue avoids
     *  ("one queue is simpler", Section 1). */
    bool splitDispatchQueues = false;
    /// @}

    /// @name Split-queue capacities (2:1:1 of dqSize)
    /// @{
    int intQueueSize() const { return (dqSize + 1) / 2; }
    int fpQueueSize() const { return (dqSize + 3) / 4; }
    int memQueueSize() const
    { return dqSize - intQueueSize() - fpQueueSize(); }
    /// @}

    /** Stop after this many committed instructions (0 = run to halt).
     *  Under sampling this caps the total architectural instructions
     *  advanced (fast-forwarded + detailed), keeping the run length
     *  comparable to the full-detail run it approximates. */
    std::uint64_t maxCommitted = 0;

    /** Interval sampling; disabled by default (full detail). */
    SamplingConfig sampling;

    /** Watchdog: abort if no instruction commits for this many cycles
     *  (0 disables). Catches machine deadlocks in testing. */
    Cycle deadlockCycles = 200000;

    /** If nonzero, re-derive the liveness counters from a full scan
     *  every N cycles and panic on mismatch (testing aid). */
    Cycle auditInterval = 0;

    /// @name Derived per-cycle limits (paper Section 2.1)
    /// @{
    /** Instructions inserted into the dispatch queue per cycle. */
    int insertWidth() const { return issueWidth + issueWidth / 2; }
    /** Instructions committed per cycle. */
    int commitWidth() const { return 2 * issueWidth; }
    int intIssueLimit() const { return issueWidth; }
    int fpIssueLimit() const { return issueWidth / 2; }
    /** Floored at one: a narrow machine (width 2) still has a divider
     *  and can still issue branches — a zero limit would silently
     *  deadlock the first fp-divide or conditional branch. */
    int fpDivIssueLimit() const { return std::max(1, issueWidth / 4); }
    int memIssueLimit() const { return issueWidth / 2; }
    int ctrlIssueLimit() const { return std::max(1, issueWidth / 4); }
    /** Unpipelined divide/sqrt units. */
    int numFpDividers() const { return fpDivIssueLimit(); }
    /// @}

    /** fatal() listing every error rule of checkCoreConfig() broken
     *  (config_check.cc); silent and allocation-free when feasible. */
    void validate() const;

    /** Memberwise equality (grid-expansion tests compare registry
     *  output against hand-built legacy spec vectors). */
    bool operator==(const CoreConfig &) const = default;
};

} // namespace drsim

#endif // DRSIM_CORE_CONFIG_HH
