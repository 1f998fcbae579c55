/**
 * @file
 * The dynamically scheduled processor model (paper Figures 1 and 2).
 *
 * Pipeline structure per cycle (processed in reverse pipeline order so
 * each stage sees last cycle's state):
 *   1. commit   - up to 2x issue-width completed instructions leave
 *                 the machine in program order; stores reach the write
 *                 buffer/cache; precise-model register freeing.
 *   2. complete - scheduled completions fire: results become
 *                 architectural on the current path, freeing
 *                 bookkeeping advances (imprecise kill engine).
 *   3. issue    - greedy oldest-first selection from the unified
 *                 dispatch queue subject to the per-class limits;
 *                 conditional branches execute here, so mispredictions
 *                 are detected and recovery (squash + rename/emulator
 *                 rollback + history repair) happens here.
 *   4. insert   - up to 1.5x issue-width instructions are fetched down
 *                 the predicted path, functionally executed, renamed,
 *                 and inserted into the dispatch queue; stalls when
 *                 the queue is full or a free register is missing.
 *
 * Dispatch-queue entries are freed at issue; program order for commit
 * is tracked by the (unbounded) instruction window, so the in-flight
 * window is bounded by physical registers, not by the queue — which is
 * how the paper's tomcatv can keep ~500 registers live with a 64-entry
 * queue (Figure 5 discussion).
 */

#ifndef DRSIM_CORE_PROCESSOR_HH
#define DRSIM_CORE_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bpred/predictor.hh"
#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/dyninst.hh"
#include "core/regfile.hh"
#include "memory/cache.hh"
#include "workloads/emulator.hh"
#include "workloads/program.hh"

namespace drsim {

/** Why the simulation stopped. */
enum class StopReason : std::uint8_t { Running, Halted, InstLimit };

/** Stable identifier, e.g. "inst-limit" (the stop_reason of the
 *  results artifact and of the point record). */
const char *stopReasonName(StopReason reason);

/**
 * Mutually exclusive per-cycle attribution of what the machine was
 * doing (or why it was doing nothing).  Every simulated cycle is
 * assigned exactly one cause, so the per-cause cycle counts sum to
 * ProcStats::cycles — the invariant the observability layer is built
 * on (see DESIGN.md, "Stall-cause attribution").
 *
 * A cycle that issued or committed at least one instruction is
 * productive: Busy, or IssueWidthBound when the issue stage also ran
 * out of per-cycle budget with ready work left behind (the machine was
 * at peak but width-limited).  A cycle with no issue and no commit is
 * a stall, attributed to the highest-priority blocked resource in the
 * order listed below (back of the pipe outranks the front, since a
 * downstream blockage starves everything behind it); OperandWait is
 * the residual — nothing structural was blocked, the window was simply
 * waiting on operands, latencies, or front-end fill.
 */
enum class CycleCause : std::uint8_t {
    Busy = 0,         ///< issued/committed, no budget exhaustion
    IssueWidthBound,  ///< issued at the width limit with work left
    WriteBufferFull,  ///< commit blocked on the finite write buffer
    ResultBus,        ///< a completion lost result-bus arbitration
    MemPortSaturated, ///< cache/MSHRs refused a ready memory op
    DividerBusy,      ///< every unpipelined divider occupied
    DqFullInt,        ///< insert blocked: int (or unified) queue full
    DqFullFp,         ///< insert blocked: floating-point queue full
    DqFullMem,        ///< insert blocked: memory queue full
    NoFreeRegInt,     ///< insert blocked: int free list empty
    NoFreeRegFp,      ///< insert blocked: fp free list empty
    ICacheStall,      ///< insert blocked on an instruction-cache miss
    FetchBlocked,     ///< emulator out of instructions (drain/halt)
    OperandWait,      ///< residual: dependencies and latencies
};

constexpr int kNumCycleCauses = 14;

/** Stable snake_case identifier, e.g. "write_buffer_full" (also the
 *  JSON key in the schema-v2 results artifact). */
const char *cycleCauseName(CycleCause cause);

/** Pipeline-trace output format (see Processor::setTrace). */
enum class TraceFormat : std::uint8_t { Text, Jsonl };

struct ProcStats
{
    Cycle cycles = 0;

    std::uint64_t committed = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t committedCondBranches = 0;

    /** "Executed" = issued, including wrong-path work (paper Table 1). */
    std::uint64_t executed = 0;
    std::uint64_t executedLoads = 0;
    std::uint64_t executedStores = 0;
    std::uint64_t executedCondBranches = 0;

    std::uint64_t mispredictedBranches = 0; ///< of executed cbr
    std::uint64_t recoveries = 0;           ///< squash events
    std::uint64_t squashedInsts = 0;
    std::uint64_t forwardedLoads = 0;

    std::uint64_t insertStallNoRegCycles = 0;
    std::uint64_t insertStallDqFullCycles = 0;
    std::uint64_t noFreeRegCycles = 0;
    std::uint64_t fetchBlockedCycles = 0;
    /** Cycles commit stalled on a full (finite) write buffer. */
    std::uint64_t writeBufferStallCycles = 0;

    /**
     * Exclusive per-cycle attribution, indexed by CycleCause: exactly
     * one bucket is incremented every cycle, so the buckets sum to
     * @ref cycles.  Unlike the observation counters above (which may
     * overlap — several stages can report a stall in the same cycle),
     * these support an additive stall-breakdown table.
     */
    std::uint64_t causeCycles[kNumCycleCauses] = {};

    std::uint64_t
    cycleCauseCount(CycleCause cause) const
    {
        return causeCycles[int(cause)];
    }
    /** Productive cycles: Busy plus IssueWidthBound. */
    std::uint64_t
    busyCycles() const
    {
        return causeCycles[int(CycleCause::Busy)] +
               causeCycles[int(CycleCause::IssueWidthBound)];
    }

    /**
     * End-of-cycle structure-occupancy histograms (one sample per
     * cycle when CoreConfig::collectOccupancyHistograms is set):
     * dispatch-queue residents (all queues), in-flight window size,
     * and store-queue depth.
     */
    Histogram dqDepth;
    Histogram windowDepth;
    Histogram storeQueueDepth;

    /**
     * Per-cycle live-register histograms, nested cumulative sums per
     * register file (see DESIGN.md):
     *   [0] in-flight
     *   [1] + in dispatch queue
     *   [2] + waiting imprecise requirements (= imprecise-model live)
     *   [3] + waiting precise requirements  (= total live)
     */
    Histogram live[kNumRegClasses][4];

    /**
     * Largest per-cycle total live-register count observed for @p cls
     * (level [3], precise accounting); 0 when the live histograms
     * were not collected.  The static-bounds cross-check gate
     * compares this against the analysis layer's MaxLive.
     */
    std::uint64_t
    peakLive(RegClass cls) const
    {
        return live[int(cls)][3].maxValue();
    }

    /**
     * Accumulate @p other into this.  Counters add, histograms merge
     * bucket-wise, causeCycles add — so sum(causeCycles) == cycles
     * still holds for the merged stats.  The window-parallel sampling
     * driver uses this to combine per-window processors in interval
     * order (DESIGN.md §5j); derived ratios recompute on demand from
     * the merged counters.
     */
    void merge(const ProcStats &other);

    double
    issueIpc() const
    {
        return cycles ? double(executed) / double(cycles) : 0.0;
    }
    double
    commitIpc() const
    {
        return cycles ? double(committed) / double(cycles) : 0.0;
    }
    double
    mispredictRate() const
    {
        return executedCondBranches
                   ? double(mispredictedBranches) /
                         double(executedCondBranches)
                   : 0.0;
    }
};

/**
 * What functional warming leaves in a configuration's
 * microarchitecture (DESIGN.md §5j): instruction- and data-cache tag
 * state and the branch predictor's saveState() image.  Everything
 * else in a machine (rename, queues, write buffer, MSHRs) starts at
 * reset either way.
 */
struct WarmState
{
    CacheWarmState icache;
    CacheWarmState dcache;
    std::vector<std::uint8_t> predictor;
};

class Processor
{
  public:
    /** The caller keeps @p program alive for the processor's life. */
    Processor(const CoreConfig &config, const Program &program);

    /** Owning overload: safe to pass a temporary Program. */
    Processor(const CoreConfig &config, Program &&program);

    /**
     * Construct with the emulator already in @p restore_from, skipping
     * the initial-image build entirely (one bulk snapshot copy instead
     * of three passes over the data segment).  Equivalent to a fresh
     * machine whose emulator then ran Emulator::restoreArchState();
     * the sampling driver's per-window tasks (DESIGN.md §5j) use this
     * on every checkpoint restore.  Microarchitectural state (caches,
     * predictor, rename) stays at reset — restoreWarmState() and the
     * stat-gated warm-up re-fill it.
     */
    Processor(const CoreConfig &config, const Program &program,
              const EmuArchState &restore_from);

    /** Advance one cycle. */
    void tick();

    /** Run until the program halts or the instruction limit hits. */
    void run();

    /**
     * Run detailed until @p target_committed instructions have
     * committed (cumulative, against stats().committed) or the run
     * ends.
     */
    void runDetailed(std::uint64_t target_committed);

    /**
     * Restore functionally warmed microarchitectural state (DESIGN.md
     * §5j) into a *fresh* machine: the caches' tag state and the
     * branch predictor, as the checkpoint library's functional pass
     * left them at this window's detail start.  Panics if the machine
     * already ran.
     */
    void restoreWarmState(const WarmState &state);

    /**
     * Gate the per-cycle occupancy/live histograms (sampling warm-up:
     * the machine runs detailed but the distribution stats must only
     * reflect measured windows).  Cycle/cause counters are never
     * gated, so sum(causeCycles) == cycles always holds.
     */
    void setStatsGate(bool gated) { statsGated_ = gated; }

    bool done() const { return stopReason_ != StopReason::Running; }
    StopReason stopReason() const { return stopReason_; }

    const ProcStats &stats() const { return stats_; }
    const CoreConfig &config() const { return config_; }
    const Emulator &emulator() const { return emu_; }
    const DataCache &dcache() const { return dcache_; }
    const InstCache &icache() const { return icache_; }
    const RenameUnit &rename() const { return rename_; }
    const BranchPredictor &predictor() const { return *pred_; }
    Cycle now() const { return now_; }

    /** In-flight window occupancy (testing aid). */
    std::size_t windowSize() const { return window_.size(); }
    /** Dispatch-queue occupancy across all queues (testing aid). */
    std::size_t
    dqOccupancy() const
    {
        return std::size_t(dqCount_[0]) + std::size_t(dqCount_[1]) +
               std::size_t(dqCount_[2]);
    }

    /** Overall load miss rate in the paper's sense: primary misses
     *  over executed loads (forwarded loads never miss; merges onto an
     *  outstanding fetch are secondary misses, reported separately). */
    double loadMissRate() const;

    /**
     * Stream a one-record-per-instruction pipeline trace: sequence
     * number, PC, disassembly, and the insert/issue/complete cycles,
     * ending in the commit cycle or the squash point.  Pass nullptr
     * to stop tracing (tracing costs nothing while detached — the
     * stages check a single pointer).  The stream must outlive the
     * processor.
     *
     * TraceFormat::Text is the legacy one-line human format
     * (`seq=.. pc=.. 'disasm' I@ X@ C@ R@`); TraceFormat::Jsonl emits
     * one JSON object per line (machine-readable, keys documented in
     * docs/RESULTS_SCHEMA.md under "Event trace").
     */
    void
    setTrace(std::ostream *os, TraceFormat format = TraceFormat::Text)
    {
        trace_ = os;
        traceFormat_ = format;
    }

  private:
    Processor(const CoreConfig &config, const Program *external,
              std::unique_ptr<const Program> owned,
              const EmuArchState *restore_from = nullptr);

    struct CompletionEvent
    {
        InstUid uid;
        InstSeqNum seq;
    };

    /**
     * What the stages observed this cycle, reset every tick().  The
     * flags may overlap (commit can block on the write buffer in the
     * same cycle insert blocks on a full queue); classifyCycle()
     * reduces them to the single exclusive CycleCause.
     */
    struct CycleObs
    {
        bool issued = false;
        bool committed = false;
        bool writeBufferFull = false;
        /** A register-writing completion was deferred this cycle. */
        bool resultBusContended = false;
        bool memPortSaturated = false;
        bool dividerBusy = false;
        bool issueWidthBound = false;
        bool dqFull[3] = {false, false, false}; ///< int/fp/mem queue
        bool noFreeReg[kNumRegClasses] = {};
        bool icacheStall = false;
        bool fetchBlocked = false;
    };

    struct PendingKiller
    {
        InstSeqNum seq;
        InstUid uid;
        RegClass cls;
        std::uint8_t vreg;
        bool
        operator>(const PendingKiller &o) const
        {
            return seq > o.seq;
        }
    };

    /// @name Window helpers
    /// @{
    DynInst &inst(InstSeqNum seq) { return window_[seq - headSeq_]; }
    bool
    validInst(InstSeqNum seq, InstUid uid) const
    {
        return seq >= headSeq_ && seq < headSeq_ + window_.size() &&
               window_[seq - headSeq_].uid == uid;
    }
    /// @}

    /** A dispatch-queue resident waiting on a physical register. */
    struct Waiter
    {
        InstSeqNum seq;
        InstUid uid;
    };

    /// @name Pipeline stages
    /// @{
    void commitStage();
    void completeStage();
    /** Finite-bus CDB arbitration: defer this cycle's excess
     *  register-writing completions, oldest granted first. */
    void arbitrateResultBuses(std::vector<CompletionEvent> &bucket);
    /** Merge this cycle's wakeups, then walk the ready queues. */
    void issueStage();
    void insertStage();
    void sampleStats();
    /// @}

    /// @name Event-driven scheduling
    /// @{
    /** Producer of (@p cls, @p preg) completed: deliver the pending
     *  operand to every subscribed dispatch-queue resident. */
    void wakeDependents(RegClass cls, PhysRegIndex preg);
    /// @}

    /// @name Branch-order tracking (lazily trimmed monotone queues)
    /// @{
    /** Drop leading entries whose branch has issued / completed. */
    void trimUnissuedFront();
    void trimUncompletedFront();
    /** Oldest still-unissued conditional branch (0 when none). */
    InstSeqNum oldestUnissuedBranch();
    /** Oldest uncompleted conditional branch (0 when none). */
    InstSeqNum oldestUncompletedBranch();
    /// @}

    bool tryIssue(DynInst &in, struct IssueBudget &budget);
    /** Reduce this cycle's observations to one CycleCause bucket. */
    void classifyCycle();
    /** CycleObs::dqFull index of the queue @p si dispatches into
     *  (0 for the unified queue). */
    int queueIndexFor(const Instruction &si) const;
    int queueCapacity(const Instruction &si) const;
    /** Emit one pipeline-trace line for a retiring/squashed inst. */
    void traceLine(const DynInst &in, bool squashed);
    void scheduleCompletion(DynInst &in, Cycle when);
    void finishIssue(DynInst &in, Cycle complete_at);
    /** Issue-time handling of loads; false if the load must wait. */
    bool issueLoad(DynInst &in);
    void recover(DynInst &branch);
    void squashYoungest();
    void drainKillers();
    bool branchesBeforeCompleted(InstSeqNum seq);
    void stop(StopReason reason);

    CoreConfig config_;
    /** Set only by the owning constructor. */
    std::unique_ptr<const Program> ownedProgram_;
    const Program &program_;
    Emulator emu_;
    /** The configured backend (CoreConfig::predictor); never null. */
    std::unique_ptr<BranchPredictor> pred_;
    DataCache dcache_;
    InstCache icache_;
    RenameUnit rename_;
    ProcStats stats_;

    Cycle now_ = 0;
    InstUid nextUid_ = 1;
    InstSeqNum nextSeq_ = 1;
    InstSeqNum headSeq_ = 1;
    /** In-flight window, indexed seq - headSeq_; a flat ring instead
     *  of std::deque so the per-cycle push/pop churn never allocates
     *  and inst() lookups stay in one array. */
    RingDeque<DynInst> window_;

    /// @name Dispatch queues (event-driven wakeup)
    /// @{
    /** Dispatch-queue residents per queue (insert +1, issue/squash -1):
     *  the unified queue — or, when splitDispatchQueues is set, the
     *  integer+control, floating-point and memory queues. */
    int dqCount_[3] = {0, 0, 0};
    /** Seq-sorted operand-ready residents per queue: the only
     *  instructions the issue stage examines. */
    std::vector<InstSeqNum> readyQ_[3];
    /** Instructions whose last operand arrived this cycle; sorted and
     *  merged into readyQ_ at the top of the issue stage. */
    std::vector<InstSeqNum> wake_[3];
    /** Issue-stage scratch (kept entries / merge target). */
    std::vector<InstSeqNum> keep_[3];
    std::vector<InstSeqNum> mergeScratch_;
    /** Per-physical-register wakeup lists: dispatch-queue residents
     *  subscribed to an in-flight producer, cleared when the producer
     *  completes (stale squashed entries are filtered by uid). */
    std::array<std::vector<std::vector<Waiter>>, kNumRegClasses>
        waiters_;
    /// @}

    /// @name Memory ordering
    /// @{
    RingDeque<InstSeqNum> storeQueue_;
    /** 8-byte word address -> ascending store sequence numbers. */
    std::unordered_map<Addr, std::deque<InstSeqNum>> storeAddrMap_;
    /// @}

    /** Unissued conditional branches (for the in-order-branch
     *  ablation), in insert order; issued branches are trimmed lazily
     *  from the front, squashed ones from the back, so the front is
     *  the cached oldest-unissued-branch of tryIssue's ordering
     *  check — no ordered-set lookup on the issue path. */
    RingDeque<InstSeqNum> unissuedBranchQ_;

    /// @name Imprecise kill engine
    /// @{
    /** Uncompleted conditional branches, same discipline as
     *  unissuedBranchQ_. */
    RingDeque<InstSeqNum> uncompletedBranchQ_;
    std::priority_queue<PendingKiller, std::vector<PendingKiller>,
                        std::greater<>>
        pendingKillers_;
    /// @}

    /// @name Completion events
    /// @{
    std::vector<std::vector<CompletionEvent>> ring_;
    std::size_t ringSize_ = 0;
    /// @}

    /// @name Functional units
    /// @{
    std::vector<Cycle> dividerBusyUntil_;
    /// @}

    /// @name Fetch state
    /// @{
    bool redirectedThisCycle_ = false;
    bool lastFetchLineValid_ = false;
    Addr lastFetchLine_ = 0;
    Cycle icacheStallUntil_ = 0;
    /** Histogram gate for sampling warm-up (see setStatsGate). */
    bool statsGated_ = false;
    /// @}

    StopReason stopReason_ = StopReason::Running;
    Cycle lastCommitCycle_ = 0;
    CycleObs obs_;
    std::ostream *trace_ = nullptr;
    TraceFormat traceFormat_ = TraceFormat::Text;
};

} // namespace drsim

#endif // DRSIM_CORE_PROCESSOR_HH
