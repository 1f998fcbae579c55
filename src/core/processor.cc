#include "core/processor.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"

namespace drsim {

const char *
cycleCauseName(CycleCause cause)
{
    switch (cause) {
      case CycleCause::Busy: return "busy";
      case CycleCause::IssueWidthBound: return "issue_width_bound";
      case CycleCause::WriteBufferFull: return "write_buffer_full";
      case CycleCause::ResultBus: return "result_bus";
      case CycleCause::MemPortSaturated: return "mem_port_saturated";
      case CycleCause::DividerBusy: return "divider_busy";
      case CycleCause::DqFullInt: return "dq_full_int";
      case CycleCause::DqFullFp: return "dq_full_fp";
      case CycleCause::DqFullMem: return "dq_full_mem";
      case CycleCause::NoFreeRegInt: return "no_free_reg_int";
      case CycleCause::NoFreeRegFp: return "no_free_reg_fp";
      case CycleCause::ICacheStall: return "icache_stall";
      case CycleCause::FetchBlocked: return "fetch_blocked";
      case CycleCause::OperandWait: return "operand_wait";
    }
    DRSIM_PANIC("invalid CycleCause ", int(cause));
}

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Running: return "running";
      case StopReason::Halted: return "halted";
      case StopReason::InstLimit: return "inst-limit";
    }
    DRSIM_PANIC("invalid StopReason ", int(reason));
}

/** Per-cycle issue budgets (paper Section 2.1 instruction-word rules). */
struct IssueBudget
{
    int total;
    int intOps;
    int fpOps;
    int fpDiv;
    int mem;
    int ctrl;
};

Processor::Processor(const CoreConfig &config, const Program &program)
    : Processor(config, &program, nullptr)
{
}

Processor::Processor(const CoreConfig &config, Program &&program)
    : Processor(config, nullptr,
                std::make_unique<const Program>(std::move(program)))
{
}

Processor::Processor(const CoreConfig &config, const Program &program,
                     const EmuArchState &restore_from)
    : Processor(config, &program, nullptr, &restore_from)
{
}

namespace {

/** Validate before any member depends on the configuration. */
const CoreConfig &
validated(const CoreConfig &config)
{
    config.validate();
    return config;
}

} // namespace

Processor::Processor(const CoreConfig &config, const Program *external,
                     std::unique_ptr<const Program> owned,
                     const EmuArchState *restore_from)
    : config_(validated(config)),
      ownedProgram_(std::move(owned)),
      program_(external != nullptr ? *external : *ownedProgram_),
      emu_(restore_from != nullptr ? Emulator(program_, *restore_from)
                                   : Emulator(program_)),
      pred_(makeBranchPredictor(config_.predictor)),
      dcache_(config.cacheKind, config.dcache),
      icache_(config.icache),
      rename_(config.numPhysRegs, config.exceptionModel)
{
    // Completion events land at most hitLatency + missPenalty + 4
    // cycles ahead (a merged load), or the longest fixed operation
    // latency; pre-size the ring to the covering power of two so it
    // never grows at run time.
    const Cycle horizon =
        std::max<Cycle>(config_.dcache.hitLatency +
                            config_.dcache.missPenalty + 4,
                        Cycle(maxOpLatency()) + 8);
    ringSize_ = std::bit_ceil(horizon + 1);
    ring_.resize(ringSize_);
    for (auto &bucket : ring_)
        bucket.reserve(8);
    dividerBusyUntil_.assign(config_.numFpDividers(), 0);

    window_.reserve(256);
    storeQueue_.reserve(64);
    storeAddrMap_.reserve(64);
    const auto dq_cap = std::size_t(config_.dqSize);
    for (auto &per_class : waiters_)
        per_class.resize(std::size_t(config_.numPhysRegs));
    for (int q = 0; q < 3; ++q) {
        readyQ_[q].reserve(dq_cap);
        wake_[q].reserve(dq_cap);
        keep_[q].reserve(dq_cap);
    }
    mergeScratch_.reserve(dq_cap);
}

void
Processor::run()
{
    while (!done())
        tick();
}

void
Processor::runDetailed(std::uint64_t target_committed)
{
    while (!done() && stats_.committed < target_committed)
        tick();
}

void
ProcStats::merge(const ProcStats &other)
{
    cycles += other.cycles;

    committed += other.committed;
    committedLoads += other.committedLoads;
    committedStores += other.committedStores;
    committedCondBranches += other.committedCondBranches;

    executed += other.executed;
    executedLoads += other.executedLoads;
    executedStores += other.executedStores;
    executedCondBranches += other.executedCondBranches;

    mispredictedBranches += other.mispredictedBranches;
    recoveries += other.recoveries;
    squashedInsts += other.squashedInsts;
    forwardedLoads += other.forwardedLoads;

    insertStallNoRegCycles += other.insertStallNoRegCycles;
    insertStallDqFullCycles += other.insertStallDqFullCycles;
    noFreeRegCycles += other.noFreeRegCycles;
    fetchBlockedCycles += other.fetchBlockedCycles;
    writeBufferStallCycles += other.writeBufferStallCycles;

    for (int i = 0; i < kNumCycleCauses; ++i)
        causeCycles[i] += other.causeCycles[i];

    dqDepth.merge(other.dqDepth);
    windowDepth.merge(other.windowDepth);
    storeQueueDepth.merge(other.storeQueueDepth);
    for (int c = 0; c < kNumRegClasses; ++c) {
        for (int l = 0; l < 4; ++l)
            live[c][l].merge(other.live[c][l]);
    }
}

void
Processor::restoreWarmState(const WarmState &state)
{
    if (now_ != 0 || stats_.committed != 0 || !window_.empty()) {
        DRSIM_PANIC(
            "restoreWarmState() on a machine that already ran");
    }
    icache_.restoreWarmState(state.icache);
    dcache_.restoreWarmState(state.dcache);
    pred_->restoreState(state.predictor);
}

void
Processor::stop(StopReason reason)
{
    if (stopReason_ == StopReason::Running)
        stopReason_ = reason;
}

void
Processor::tick()
{
    ++now_;
    redirectedThisCycle_ = false;
    obs_ = CycleObs{};
    rename_.beginCycle(now_);

    commitStage();
    if (!done()) {
        completeStage();
        issueStage();
        insertStage();
    }
    sampleStats();

    if (config_.auditInterval && now_ % config_.auditInterval == 0)
        rename_.audit();

    if (!done() && config_.deadlockCycles &&
        now_ - lastCommitCycle_ > config_.deadlockCycles) {
        DRSIM_PANIC("no commit for ", config_.deadlockCycles,
                    " cycles (window=", window_.size(),
                    " dq=", dqOccupancy(),
                    " freeInt=", rename_.freeCount(RegClass::Int),
                    " freeFp=", rename_.freeCount(RegClass::Fp), ")");
    }
}

void
Processor::commitStage()
{
    const std::uint64_t committed_before = stats_.committed;
    int budget = config_.commitWidth();
    while (budget > 0 && !window_.empty()) {
        DynInst &in = window_.front();
        if (in.state != InstState::Completed)
            break;
        in.state = InstState::Committed;
        --budget;
        ++stats_.committed;
        obs_.committed = true;
        lastCommitCycle_ = now_;

        if (in.isLoad())
            ++stats_.committedLoads;
        if (in.isStore()) {
            if (!dcache_.storeCanCommit(now_)) {
                // Finite write buffer full: the store (and everything
                // behind it) waits — the stall the paper's free write
                // buffer assumption removes.
                in.state = InstState::Completed;
                --stats_.committed;
                ++budget;
                ++stats_.writeBufferStallCycles;
                obs_.writeBufferFull = true;
                // The store never actually committed this cycle; only
                // instructions retired ahead of it count as progress.
                obs_.committed = stats_.committed > committed_before;
                break;
            }
            ++stats_.committedStores;
            // The store's data leaves the non-merging buffer for the
            // write buffer / cache only now that it is safe.
            dcache_.storeCommit(in.effAddr, now_);
            if (storeQueue_.empty() || storeQueue_.front() != in.seq)
                DRSIM_PANIC("store queue out of order at commit");
            storeQueue_.pop_front();
            auto it = storeAddrMap_.find(in.effAddr);
            if (it == storeAddrMap_.end() || it->second.empty() ||
                it->second.front() != in.seq) {
                DRSIM_PANIC("store address map out of sync at commit");
            }
            it->second.pop_front();
            if (it->second.empty())
                storeAddrMap_.erase(it);
        }
        if (in.isCondBranch())
            ++stats_.committedCondBranches;
        if (in.writesReg())
            rename_.onCommitWriter(in.si->dest.cls, in.prevDest);
        if (trace_ != nullptr)
            traceLine(in, false);

        const bool halt = in.si->isHalt();
        window_.pop_front();
        ++headSeq_;

        if (halt)
            stop(StopReason::Halted);
        if (config_.maxCommitted &&
            stats_.committed >= config_.maxCommitted) {
            stop(StopReason::InstLimit);
        }
        if (done())
            return;
    }
}

void
Processor::trimUnissuedFront()
{
    // Entries are popped lazily: a branch that issued (or committed,
    // or was squashed — squashes truncate the back in recover()) left
    // the queue logically; physically it leaves when it reaches the
    // front.  Each entry is pushed and popped once, so every query is
    // amortized O(1) — this is the "cached oldest unissued branch"
    // replacing the ordered-set begin() on the issue path.
    while (!unissuedBranchQ_.empty()) {
        const InstSeqNum seq = unissuedBranchQ_.front();
        if (seq >= headSeq_ && inst(seq).state == InstState::InQueue)
            break;
        unissuedBranchQ_.pop_front();
    }
}

InstSeqNum
Processor::oldestUnissuedBranch()
{
    trimUnissuedFront();
    return unissuedBranchQ_.empty() ? 0 : unissuedBranchQ_.front();
}

void
Processor::trimUncompletedFront()
{
    while (!uncompletedBranchQ_.empty()) {
        const InstSeqNum seq = uncompletedBranchQ_.front();
        if (seq >= headSeq_ && !inst(seq).completed())
            break;
        uncompletedBranchQ_.pop_front();
    }
}

InstSeqNum
Processor::oldestUncompletedBranch()
{
    trimUncompletedFront();
    return uncompletedBranchQ_.empty() ? 0
                                       : uncompletedBranchQ_.front();
}

bool
Processor::branchesBeforeCompleted(InstSeqNum seq)
{
    const InstSeqNum oldest = oldestUncompletedBranch();
    return oldest == 0 || oldest > seq;
}

void
Processor::drainKillers()
{
    const InstSeqNum oldest = oldestUncompletedBranch();
    const InstSeqNum min_branch =
        oldest == 0 ? ~InstSeqNum{0} : oldest;
    while (!pendingKillers_.empty() &&
           pendingKillers_.top().seq < min_branch) {
        const PendingKiller k = pendingKillers_.top();
        pendingKillers_.pop();
        if (validInst(k.seq, k.uid))
            rename_.kill(k.cls, k.vreg, k.seq);
        // Squashed killers are skipped; committed killers cannot still
        // be pending (their kill fired before commit was possible).
    }
}

void
Processor::arbitrateResultBuses(std::vector<CompletionEvent> &bucket)
{
    // Collect this cycle's register-writing completions (the only
    // consumers of a writeback bus; stores and branches produce no
    // register value).  Squashed events are left for the main loop's
    // validity filter.
    std::vector<InstSeqNum> writers;
    for (const CompletionEvent &ev : bucket) {
        if (validInst(ev.seq, ev.uid) && inst(ev.seq).writesReg())
            writers.push_back(ev.seq);
    }
    if (int(writers.size()) <= config_.resultBuses)
        return;

    // Oldest-first grant: losers move to the next cycle's bucket and
    // their destination's readiness is pushed back with them (their
    // dependents are woken by the deferred completion itself).
    std::sort(writers.begin(), writers.end());
    const auto granted_end =
        writers.begin() + std::size_t(config_.resultBuses);
    std::vector<CompletionEvent> kept;
    kept.reserve(bucket.size());
    auto &next = ring_[(now_ + 1) % ringSize_];
    for (const CompletionEvent &ev : bucket) {
        const bool deferred =
            std::binary_search(granted_end, writers.end(), ev.seq) &&
            validInst(ev.seq, ev.uid) && inst(ev.seq).writesReg();
        if (!deferred) {
            kept.push_back(ev);
            continue;
        }
        DynInst &in = inst(ev.seq);
        rename_.setReady(in.si->dest.cls, in.physDest, now_ + 1);
        next.push_back(ev);
        obs_.resultBusContended = true;
    }
    bucket.swap(kept);
}

void
Processor::completeStage()
{
    auto &bucket = ring_[now_ % ringSize_];
    if (config_.resultBuses > 0 && !bucket.empty())
        arbitrateResultBuses(bucket);
    for (const CompletionEvent &ev : bucket) {
        if (!validInst(ev.seq, ev.uid))
            continue; // squashed while in flight
        DynInst &in = inst(ev.seq);
        if (in.state != InstState::Issued)
            DRSIM_PANIC("completion of non-issued instruction");
        in.state = InstState::Completed;
        in.completeCycle = now_;

        // Readers release their claim on source mappings.
        if (in.physSrc1 != kInvalidPhysReg)
            rename_.onUserDone(in.si->src1.cls, in.physSrc1);
        if (in.physSrc2 != kInvalidPhysReg)
            rename_.onUserDone(in.si->src2.cls, in.physSrc2);

        if (in.writesReg()) {
            rename_.onWriterComplete(in.si->dest.cls, in.physDest);
            // Imprecise kill: older mappings of this virtual register
            // die once every branch preceding this writer completed.
            if (branchesBeforeCompleted(in.seq)) {
                rename_.kill(in.si->dest.cls, in.si->dest.index,
                             in.seq);
            } else {
                pendingKillers_.push({in.seq, in.uid, in.si->dest.cls,
                                      in.si->dest.index});
            }
            wakeDependents(in.si->dest.cls, in.physDest);
        }

        if (in.isCondBranch()) {
            trimUncompletedFront();
            if (in.hasEmuCp) {
                emu_.releaseCheckpoint(in.emuCp);
                in.hasEmuCp = false;
            }
            drainKillers();
        }
    }
    bucket.clear();
}

void
Processor::wakeDependents(RegClass cls, PhysRegIndex preg)
{
    // The subscribers were not operand-ready at insert; this producer
    // completing is the only event that can supply this operand, and
    // the value is sourceable from this cycle on (readyCycle was set
    // to the completion cycle at issue).
    std::vector<Waiter> &list = waiters_[int(cls)][preg];
    for (const Waiter &w : list) {
        if (!validInst(w.seq, w.uid))
            continue; // squashed while waiting
        DynInst &dep = inst(w.seq);
        if (dep.waitingOps == 0)
            DRSIM_PANIC("wakeup underflow for seq ", w.seq);
        if (--dep.waitingOps == 0)
            wake_[queueIndexFor(*dep.si)].push_back(w.seq);
    }
    list.clear();
}

void
Processor::scheduleCompletion(DynInst &in, Cycle when)
{
    if (when <= now_ || when - now_ >= ringSize_)
        DRSIM_PANIC("completion ", when, " outside ring at ", now_);
    ring_[when % ringSize_].push_back({in.uid, in.seq});
}

void
Processor::finishIssue(DynInst &in, Cycle complete_at)
{
    --dqCount_[queueIndexFor(*in.si)];
    in.state = InstState::Issued;
    in.issueCycle = now_;
    ++stats_.executed;
    obs_.issued = true;
    if (in.isLoad())
        ++stats_.executedLoads;
    if (in.isStore())
        ++stats_.executedStores;
    if (in.writesReg()) {
        rename_.onIssueWriter(in.si->dest.cls, in.physDest);
        rename_.setReady(in.si->dest.cls, in.physDest, complete_at);
    }
    scheduleCompletion(in, complete_at);

    if (in.isCondBranch()) {
        ++stats_.executedCondBranches;
        trimUnissuedFront();
        // Counters train at execution, in execution order (paper 2.1).
        pred_->update(in.pc, in.historyBefore, in.actualTaken);
        if (!config_.speculativeHistoryUpdate)
            pred_->shiftHistory(in.actualTaken);
        if (in.mispredicted)
            ++stats_.mispredictedBranches;
    }
}

bool
Processor::issueLoad(DynInst &in)
{
    // Dynamic memory disambiguation: the youngest older store to the
    // same word either forwards (once resolved) or delays the load;
    // stores to other addresses never delay it.
    const auto it = storeAddrMap_.find(in.effAddr);
    if (it != storeAddrMap_.end()) {
        const auto &seqs = it->second;
        const auto p =
            std::lower_bound(seqs.begin(), seqs.end(), in.seq);
        if (p != seqs.begin()) {
            if (!config_.storeToLoadForwarding)
                return false; // ablation: wait for the store's commit
            const InstSeqNum store_seq = *(p - 1);
            const DynInst &st = inst(store_seq);
            const bool resolved = st.issueCycle != kInvalidCycle &&
                                  st.issueCycle + 1 <= now_;
            if (!resolved)
                return false; // wait for the store to resolve
            // Store-to-load forwarding from the non-merging buffer.
            in.forwarded = true;
            ++stats_.forwardedLoads;
            finishIssue(in, now_ + dcache_.hitUseLatency());
            return true;
        }
    }

    if (!dcache_.loadCanIssue(now_)) {
        obs_.memPortSaturated = true;
        return false; // lockup cache busy with a miss
    }

    const LoadResult res = dcache_.load(in.effAddr, now_, in.uid);
    if (!res.accepted) {
        obs_.memPortSaturated = true;
        return false; // every MSHR in use; retry later
    }
    in.fetchId = res.fetchId;
    in.cacheMiss = !res.hit;
    finishIssue(in, res.readyCycle);
    return true;
}

bool
Processor::tryIssue(DynInst &in, IssueBudget &budget)
{
    // Only ready-queue residents get here: every operand has been
    // delivered (at insert, or by its producer's completion).
    const OpClass cls = in.si->cls();
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMult:
        if (budget.intOps == 0) {
            obs_.issueWidthBound = true;
            return false;
        }
        finishIssue(in, now_ + opTraits(in.si->op).latency);
        --budget.intOps;
        break;

      case OpClass::FpAdd:
        if (budget.fpOps == 0) {
            obs_.issueWidthBound = true;
            return false;
        }
        finishIssue(in, now_ + opTraits(in.si->op).latency);
        --budget.fpOps;
        break;

      case OpClass::FpDiv: {
        if (budget.fpOps == 0 || budget.fpDiv == 0) {
            obs_.issueWidthBound = true;
            return false;
        }
        int unit = -1;
        for (int u = 0; u < int(dividerBusyUntil_.size()); ++u) {
            if (dividerBusyUntil_[u] <= now_) {
                unit = u;
                break;
            }
        }
        if (unit < 0) {
            obs_.dividerBusy = true;
            return false; // every unpipelined divider is busy
        }
        const int lat = opTraits(in.si->op).latency;
        dividerBusyUntil_[unit] = now_ + lat;
        in.divUnit = unit;
        finishIssue(in, now_ + lat);
        --budget.fpOps;
        --budget.fpDiv;
        break;
      }

      case OpClass::MemLoad:
        if (budget.mem == 0) {
            obs_.memPortSaturated = true;
            return false;
        }
        if (!issueLoad(in))
            return false;
        --budget.mem;
        break;

      case OpClass::MemStore:
        if (budget.mem == 0) {
            obs_.memPortSaturated = true;
            return false;
        }
        finishIssue(in, now_ + opTraits(in.si->op).latency);
        --budget.mem;
        break;

      case OpClass::CtrlCond:
        if (budget.ctrl == 0) {
            obs_.issueWidthBound = true;
            return false;
        }
        // Ablation: force conditional branches to execute in program
        // order (paper Section 3: better prediction, worse IPC).
        if (config_.inOrderBranches &&
            oldestUnissuedBranch() != in.seq) {
            return false;
        }
        finishIssue(in, now_ + opTraits(in.si->op).latency);
        --budget.ctrl;
        break;

      case OpClass::CtrlUncond:
        if (budget.ctrl == 0) {
            obs_.issueWidthBound = true;
            return false;
        }
        finishIssue(in, now_ + opTraits(in.si->op).latency);
        --budget.ctrl;
        break;
    }
    --budget.total;
    return true;
}

int
Processor::queueIndexFor(const Instruction &si) const
{
    if (!config_.splitDispatchQueues)
        return 0; // the unified queue reports as the int queue
    switch (si.cls()) {
      case OpClass::MemLoad:
      case OpClass::MemStore:
        return 2;
      case OpClass::FpAdd:
      case OpClass::FpDiv:
        return 1;
      default:
        return 0;
    }
}

int
Processor::queueCapacity(const Instruction &si) const
{
    if (!config_.splitDispatchQueues)
        return config_.dqSize;
    switch (si.cls()) {
      case OpClass::MemLoad:
      case OpClass::MemStore:
        return config_.memQueueSize();
      case OpClass::FpAdd:
      case OpClass::FpDiv:
        return config_.fpQueueSize();
      default:
        return config_.intQueueSize();
    }
}

void
Processor::issueStage()
{
    // Fold this cycle's wakeups into the seq-sorted ready queues.
    // Completions walk the ring bucket in schedule order, so the wake
    // buffers need an explicit sort; entries are unique (an
    // instruction reaches waitingOps == 0 exactly once).
    for (int q = 0; q < 3; ++q) {
        std::vector<InstSeqNum> &wake = wake_[q];
        if (wake.empty())
            continue;
        std::sort(wake.begin(), wake.end());
        std::vector<InstSeqNum> &ready = readyQ_[q];
        if (ready.empty()) {
            ready.swap(wake);
        } else {
            mergeScratch_.clear();
            std::merge(ready.begin(), ready.end(), wake.begin(),
                       wake.end(), std::back_inserter(mergeScratch_));
            ready.swap(mergeScratch_);
        }
        wake.clear();
    }

    IssueBudget budget{config_.issueWidth, config_.intIssueLimit(),
                       config_.fpIssueLimit(), config_.fpDivIssueLimit(),
                       config_.memIssueLimit(), config_.ctrlIssueLimit()};

    DynInst *recovery_branch = nullptr;
    InstSeqNum last_issued = 0;

    // Greedy oldest-first selection over the operand-ready residents.
    // With split queues this is a seq-ordered merge across the three
    // ready queues, so the policy stays "earliest in program order
    // first" machine-wide.  A ready entry can still be kept back by
    // budgets, dividers, ports or unresolved stores; it is retried
    // next cycle.
    std::vector<InstSeqNum> *queues[3] = {&readyQ_[0], &readyQ_[1],
                                          &readyQ_[2]};
    for (auto &k : keep_)
        k.clear();
    std::size_t pos[3] = {0, 0, 0};
    while (budget.total > 0) {
        int best = -1;
        for (int q = 0; q < 3; ++q) {
            if (pos[q] < queues[q]->size() &&
                (best < 0 ||
                 (*queues[q])[pos[q]] < (*queues[best])[pos[best]])) {
                best = q;
            }
        }
        if (best < 0)
            break;
        const InstSeqNum seq = (*queues[best])[pos[best]];
        ++pos[best];
        DynInst &in = inst(seq);
        if (!tryIssue(in, budget)) {
            keep_[best].push_back(seq);
            continue;
        }
        last_issued = seq;
        if (in.isCondBranch() && in.mispredicted &&
            recovery_branch == nullptr) {
            recovery_branch = &in; // oldest mispredict this cycle
        }
    }

    if (budget.total == 0) {
        // The cycle is width-bound when the budget ran out with a
        // dispatch-queue resident younger than the last instruction
        // issued.  Walk the window youngest-first; every InQueue
        // instruction there (ready or operand-waiting) is such a
        // resident, and the walk stops at the last-issued seq, so it
        // only visits younger entries.
        for (std::size_t i = window_.size(); i-- > 0;) {
            const DynInst &in = window_[i];
            if (in.seq <= last_issued)
                break;
            if (in.state == InstState::InQueue) {
                obs_.issueWidthBound = true;
                break;
            }
        }
    }

    for (int q = 0; q < 3; ++q) {
        for (; pos[q] < queues[q]->size(); ++pos[q])
            keep_[q].push_back((*queues[q])[pos[q]]);
        queues[q]->swap(keep_[q]);
    }

    if (recovery_branch != nullptr)
        recover(*recovery_branch);
}

void
Processor::traceLine(const DynInst &in, bool squashed)
{
    std::ostream &os = *trace_;
    if (traceFormat_ == TraceFormat::Jsonl) {
        // One self-contained JSON object per line; unknown stages are
        // null so consumers need no sentinel knowledge.
        json::Writer w;
        w.beginObject();
        w.key("seq").value(in.seq);
        w.key("pc").value(in.pc);
        w.key("op").value(disassemble(*in.si));
        w.key("insert").value(in.insertCycle);
        w.key("issue");
        in.issueCycle != kInvalidCycle ? w.value(in.issueCycle) : w.null();
        w.key("complete");
        in.completeCycle != kInvalidCycle ? w.value(in.completeCycle)
                                          : w.null();
        if (squashed) {
            w.key("squash").value(now_);
        } else {
            w.key("retire").value(now_);
            if (in.isCondBranch())
                w.key("mispredict").value(in.mispredicted);
            if (in.isLoad()) {
                w.key("cache_miss").value(in.cacheMiss);
                w.key("forwarded").value(in.forwarded);
            }
        }
        os << w.endObject().str() << '\n';
        return;
    }
    os << "seq=" << in.seq << " pc=0x" << std::hex << in.pc
       << std::dec << " '" << disassemble(*in.si) << "' I@"
       << in.insertCycle;
    if (in.issueCycle != kInvalidCycle)
        os << " X@" << in.issueCycle;
    if (in.completeCycle != kInvalidCycle)
        os << " C@" << in.completeCycle;
    if (squashed) {
        os << " SQUASHED@" << now_;
    } else {
        os << " R@" << now_;
        if (in.isCondBranch() && in.mispredicted)
            os << " MISPRED";
        if (in.isLoad() && in.cacheMiss)
            os << " MISS";
        if (in.forwarded)
            os << " FWD";
    }
    os << '\n';
}

void
Processor::squashYoungest()
{
    DynInst &in = window_.back();
    ++stats_.squashedInsts;
    if (trace_ != nullptr)
        traceLine(in, true);

    // Branch-queue entries for squashed branches are truncated from
    // the back in recover(), after the squash loop.
    if (in.isCondBranch() && in.hasEmuCp) {
        emu_.releaseCheckpoint(in.emuCp);
        in.hasEmuCp = false;
    }

    if (in.state == InstState::InQueue)
        --dqCount_[queueIndexFor(*in.si)];

    // Readers that never completed still hold user claims.
    if (!in.completed()) {
        if (in.physSrc1 != kInvalidPhysReg)
            rename_.onUserDone(in.si->src1.cls, in.physSrc1);
        if (in.physSrc2 != kInvalidPhysReg)
            rename_.onUserDone(in.si->src2.cls, in.physSrc2);
    }

    if (in.isStore()) {
        if (storeQueue_.empty() || storeQueue_.back() != in.seq)
            DRSIM_PANIC("store queue out of order at squash");
        storeQueue_.pop_back();
        auto it = storeAddrMap_.find(in.effAddr);
        if (it == storeAddrMap_.end() || it->second.empty() ||
            it->second.back() != in.seq) {
            DRSIM_PANIC("store address map out of sync at squash");
        }
        it->second.pop_back();
        if (it->second.empty())
            storeAddrMap_.erase(it);
    }

    if (in.isLoad() && in.fetchId >= 0)
        dcache_.squashLoad(in.fetchId, in.uid, now_);

    // An unpipelined divider working for a squashed divide frees up
    // next cycle (paper Section 2.2).
    if (in.divUnit >= 0 && dividerBusyUntil_[in.divUnit] > now_)
        dividerBusyUntil_[in.divUnit] = now_ + 1;

    if (in.writesReg()) {
        rename_.squashWriter(in.si->dest.cls, in.si->dest.index,
                             in.physDest, in.prevDest, in.seq);
    }

    window_.pop_back();
    --nextSeq_;
}

void
Processor::recover(DynInst &branch)
{
    ++stats_.recoveries;
    const InstSeqNum bseq = branch.seq;

    // Remove wrong-path instructions, youngest first, so rename-map
    // restoration and emulator checkpoint releases nest correctly.
    while (!window_.empty() && window_.back().seq > bseq)
        squashYoungest();

    for (std::vector<InstSeqNum> &rq : readyQ_) {
        while (!rq.empty() && rq.back() > bseq)
            rq.pop_back();
    }
    // wake_ is empty here: it is drained at the top of the issue stage
    // and refilled only in the complete stage.
    for (RingDeque<InstSeqNum> *bq :
         {&unissuedBranchQ_, &uncompletedBranchQ_}) {
        while (!bq->empty() && bq->back() > bseq)
            bq->pop_back();
    }

    if (!branch.hasEmuCp)
        DRSIM_PANIC("recovery branch lost its checkpoint");
    emu_.rollbackTo(branch.emuCp, branch.actualNextPc);

    // Load the history register with its pre-branch value plus the
    // actual direction (paper Section 2.1).  Under the execute-time-
    // history ablation the register never held speculative bits, and
    // this branch's own direction was already shifted in at issue.
    if (config_.speculativeHistoryUpdate)
        pred_->repairHistory(branch.historyBefore, branch.actualTaken);

    // Fetch resumes down the correct path next cycle.
    redirectedThisCycle_ = true;
    lastFetchLineValid_ = false;
    icacheStallUntil_ = 0;
}

void
Processor::insertStage()
{
    if (redirectedThisCycle_)
        return;

    int budget = config_.insertWidth();
    while (budget > 0) {
        if (emu_.fetchBlocked()) {
            obs_.fetchBlocked = true;
            break;
        }
        if (now_ < icacheStallUntil_) {
            obs_.icacheStall = true;
            break;
        }

        const Addr pc = emu_.pc();
        const Addr line = pc / config_.icache.lineBytes;
        if (!config_.perfectICache &&
            (!lastFetchLineValid_ || line != lastFetchLine_)) {
            const Cycle ready = icache_.fetch(pc, now_);
            lastFetchLine_ = line;
            lastFetchLineValid_ = true;
            if (ready > now_) {
                icacheStallUntil_ = ready;
                obs_.icacheStall = true;
                break;
            }
        }

        const Instruction *si = emu_.peek();
        // Insert stalls when the instruction's *target* queue is full
        // (for the unified queue this is the single dqSize bound).
        const int qidx = queueIndexFor(*si);
        if (dqCount_[qidx] >= queueCapacity(*si)) {
            obs_.dqFull[qidx] = true;
            break;
        }
        if (si->writesReg() && !rename_.canAllocate(si->dest.cls)) {
            obs_.noFreeReg[int(si->dest.cls)] = true;
            break;
        }

        // Build the DynInst in its window slot directly; all stall
        // checks that could abandon this fetch slot ran above.
        DynInst &in = window_.emplace_back();
        in.uid = nextUid_++;
        in.seq = nextSeq_++;
        in.si = si;
        in.pc = pc;
        in.insertCycle = now_;

        bool follow_taken = false;
        if (si->isCondBranch()) {
            in.historyBefore = pred_->history();
            if (config_.speculativeHistoryUpdate) {
                follow_taken = pred_->predictAndUpdateHistory(pc);
            } else {
                // Ablation: the history register is only updated when
                // the branch executes.
                follow_taken = pred_->predict(pc);
            }
            in.predictedTaken = follow_taken;
            in.emuCp = emu_.takeCheckpoint();
            in.hasEmuCp = true;
            uncompletedBranchQ_.push_back(in.seq);
            unissuedBranchQ_.push_back(in.seq);
        }

        const StepInfo step = emu_.step(follow_taken);
        in.effAddr = step.effAddr;
        in.actualTaken = step.actualTaken;
        in.actualNextPc = step.actualNextPc;
        in.mispredicted =
            si->isCondBranch() && step.actualTaken != follow_taken;

        in.physSrc1 = rename_.renameSrc(si->src1);
        in.physSrc2 = rename_.renameSrc(si->src2);
        if (si->writesReg()) {
            const auto alloc = rename_.renameDest(si->dest, in.seq);
            in.physDest = alloc.dest;
            in.prevDest = alloc.prev;
        }

        if (si->isStore()) {
            storeQueue_.push_back(in.seq);
            storeAddrMap_[in.effAddr].push_back(in.seq);
        }

        // Subscribe to in-flight producers; an operand whose
        // readyCycle is still in the future is delivered by that
        // producer's completion event (wakeDependents).  With no
        // pending operands the instruction is ready immediately.
        std::uint8_t waiting = 0;
        if (!rename_.isReady(si->src1.cls, in.physSrc1, now_)) {
            waiters_[int(si->src1.cls)][in.physSrc1].push_back(
                {in.seq, in.uid});
            ++waiting;
        }
        if (!rename_.isReady(si->src2.cls, in.physSrc2, now_)) {
            waiters_[int(si->src2.cls)][in.physSrc2].push_back(
                {in.seq, in.uid});
            ++waiting;
        }
        in.waitingOps = waiting;
        ++dqCount_[qidx];
        if (waiting == 0)
            readyQ_[qidx].push_back(in.seq);
        --budget;
    }

    // The legacy (non-exclusive) observation counters keep their
    // original meaning; icache stalls were never counted here.
    if (obs_.noFreeReg[int(RegClass::Int)] ||
        obs_.noFreeReg[int(RegClass::Fp)]) {
        ++stats_.insertStallNoRegCycles;
    }
    if (obs_.dqFull[0] || obs_.dqFull[1] || obs_.dqFull[2])
        ++stats_.insertStallDqFullCycles;
    if (obs_.fetchBlocked)
        ++stats_.fetchBlockedCycles;
}

void
Processor::classifyCycle()
{
    CycleCause cause = CycleCause::OperandWait;
    if (obs_.issued || obs_.committed) {
        // Productive cycle: at peak width, or simply busy.
        cause = obs_.issueWidthBound ? CycleCause::IssueWidthBound
                                     : CycleCause::Busy;
    } else if (obs_.writeBufferFull) {
        cause = CycleCause::WriteBufferFull;
    } else if (obs_.resultBusContended) {
        cause = CycleCause::ResultBus;
    } else if (obs_.memPortSaturated) {
        cause = CycleCause::MemPortSaturated;
    } else if (obs_.dividerBusy) {
        cause = CycleCause::DividerBusy;
    } else if (obs_.dqFull[0]) {
        cause = CycleCause::DqFullInt;
    } else if (obs_.dqFull[1]) {
        cause = CycleCause::DqFullFp;
    } else if (obs_.dqFull[2]) {
        cause = CycleCause::DqFullMem;
    } else if (obs_.noFreeReg[int(RegClass::Int)]) {
        cause = CycleCause::NoFreeRegInt;
    } else if (obs_.noFreeReg[int(RegClass::Fp)]) {
        cause = CycleCause::NoFreeRegFp;
    } else if (obs_.icacheStall) {
        cause = CycleCause::ICacheStall;
    } else if (obs_.fetchBlocked) {
        cause = CycleCause::FetchBlocked;
    }
    ++stats_.causeCycles[int(cause)];
}

void
Processor::sampleStats()
{
    stats_.cycles = now_;
    classifyCycle();
    if (rename_.freeCount(RegClass::Int) == 0 ||
        rename_.freeCount(RegClass::Fp) == 0) {
        ++stats_.noFreeRegCycles;
    }
    if (config_.collectOccupancyHistograms && !statsGated_) {
        stats_.dqDepth.addSample(dqOccupancy());
        stats_.windowDepth.addSample(window_.size());
        stats_.storeQueueDepth.addSample(storeQueue_.size());
    }
    if (!config_.collectLiveHistograms || statsGated_)
        return;
    for (int c = 0; c < kNumRegClasses; ++c) {
        const LiveCounts lc = rename_.liveCounts(RegClass(c));
        const std::uint64_t s1 = lc.inFlight;
        const std::uint64_t s2 = s1 + lc.inQueue;
        const std::uint64_t s3 = s2 + lc.waitImprecise;
        const std::uint64_t s4 = s3 + lc.waitPrecise;
        stats_.live[c][0].addSample(s1);
        stats_.live[c][1].addSample(s2);
        stats_.live[c][2].addSample(s3);
        stats_.live[c][3].addSample(s4);
    }
}

double
Processor::loadMissRate() const
{
    if (stats_.executedLoads == 0)
        return 0.0;
    return double(dcache_.stats().loadMisses) /
           double(stats_.executedLoads);
}

} // namespace drsim
