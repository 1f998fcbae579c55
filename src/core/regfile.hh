/**
 * @file
 * Physical register files, rename maps, free lists, and the
 * register-freeing state machines for both exception models
 * (paper Section 2.2).
 *
 * Every live physical register is in exactly one of four states
 * (paper Section 3.1):
 *   InQueue       - destination of an instruction in the dispatch queue
 *   InFlight      - destination of an issued, uncompleted instruction
 *   WaitImprecise - writer completed, imprecise freeing conditions not
 *                   yet met
 *   WaitPrecise   - imprecise conditions met, precise conditions not
 *                   yet met
 * Under the precise model, registers are freed when the retiring
 * writer commits; the imprecise conditions are still tracked (shadow
 * accounting) so a single precise run yields the paper's Figure-3
 * category breakdown, exactly as the machine-model box in the paper's
 * Figure 2 describes ("precise exceptions and imprecise exception
 * estimation of register usage").  Under the imprecise model the
 * register is actually freed the moment the imprecise conditions are
 * met.
 *
 * The imprecise "kill" rule: when a later writer of virtual register
 * V completes and every branch preceding that writer has completed,
 * all older mappings of V are killed.  A killed mapping is freed once
 * its own writer has completed and all of its users have completed.
 *
 * Freed registers become allocatable in the *next* cycle (paper
 * Section 2.2: "a register can be reused in the cycle after the
 * conditions for freeing it are satisfied").
 */

#ifndef DRSIM_CORE_REGFILE_HH
#define DRSIM_CORE_REGFILE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "isa/reg.hh"

namespace drsim {

enum class LiveCat : std::uint8_t {
    Free = 0,
    InQueue,
    InFlight,
    WaitImprecise,
    WaitPrecise,
};

constexpr int kNumLiveCats = 5;

struct PhysRegInfo
{
    LiveCat cat = LiveCat::Free;
    /** Cycle the register was allocated (for lifetime statistics). */
    Cycle allocCycle = 0;
    /** Cycle from which the value may be sourced by the scheduler. */
    Cycle readyCycle = kInvalidCycle;
    /** Renamed readers that have not yet completed. */
    std::uint32_t pendingUsers = 0;
    bool writerCompleted = false;
    /** Imprecise kill received (a later writer superseded it). */
    bool killed = false;
    /** All imprecise freeing conditions satisfied. */
    bool impreciseMet = false;
    InstSeqNum writerSeq = 0;
};

/** Snapshot of the per-category live counts for one register file. */
struct LiveCounts
{
    std::uint64_t inQueue = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t waitImprecise = 0;
    std::uint64_t waitPrecise = 0;

    std::uint64_t
    total() const
    {
        return inQueue + inFlight + waitImprecise + waitPrecise;
    }
};

class RenameUnit
{
  public:
    RenameUnit(int num_phys_regs, ExceptionModel model);

    /// @name Per-cycle maintenance
    /// @{
    /** Make registers freed last cycle allocatable and advance the
     *  unit's notion of time (call at cycle start). */
    void beginCycle(Cycle now = 0);
    /// @}

    /// @name Rename (dispatch-queue insert)
    /// @{
    bool canAllocate(RegClass cls) const;

    /** Rename a source operand; counts a pending user on the mapping.
     *  Returns kInvalidPhysReg for invalid or zero registers. */
    PhysRegIndex renameSrc(RegId reg);

    struct Alloc
    {
        PhysRegIndex dest;
        PhysRegIndex prev;
    };
    /** Allocate a destination register, retiring the old mapping. */
    Alloc renameDest(RegId reg, InstSeqNum seq);
    /// @}

    /// @name Scheduler interface
    /// @{
    bool
    isReady(RegClass cls, PhysRegIndex preg, Cycle now) const
    {
        return preg == kInvalidPhysReg ||
               file(cls).regs[preg].readyCycle <= now;
    }
    void setReady(RegClass cls, PhysRegIndex preg, Cycle cycle);
    void onIssueWriter(RegClass cls, PhysRegIndex preg);
    /// @}

    /// @name Completion / kill events
    /// @{
    /** The writer of @p preg completed (its value is architectural on
     *  this path). */
    void onWriterComplete(RegClass cls, PhysRegIndex preg);

    /** A reader of @p preg completed (or was squashed before
     *  completing). */
    void onUserDone(RegClass cls, PhysRegIndex preg);

    /**
     * Imprecise kill: mappings of @p vreg older than @p killer_seq are
     * superseded by a completed writer whose preceding branches have
     * all completed.
     */
    void kill(RegClass cls, int vreg, InstSeqNum killer_seq);
    /// @}

    /// @name Commit / squash
    /// @{
    /** Precise-model free of the mapping retired by a committing
     *  writer (no-op under the imprecise model). */
    void onCommitWriter(RegClass cls, PhysRegIndex prev_dest);

    /**
     * Undo the rename of a squashed writer: restore the map, free the
     * destination.  Must be called youngest-first.
     */
    void squashWriter(RegClass cls, int vreg, PhysRegIndex dest,
                      PhysRegIndex prev_dest, InstSeqNum seq);
    /// @}

    /// @name Inspection
    /// @{
    PhysRegIndex mapOf(RegClass cls, int vreg) const;
    std::size_t freeCount(RegClass cls) const;
    /** Registers free for allocation *this* cycle. */
    bool anyFree(RegClass cls) const { return canAllocate(cls); }
    LiveCounts liveCounts(RegClass cls) const;
    const PhysRegInfo &
    info(RegClass cls, PhysRegIndex preg) const
    {
        return file(cls).regs[preg];
    }
    int numPhysRegs() const { return numPhysRegs_; }
    ExceptionModel model() const { return model_; }

    /** Distribution of register lifetimes (allocation to release, in
     *  cycles) — quantifies the paper's Section 3.2 remark that
     *  registers live shorter under the imprecise model. */
    const Histogram &
    lifetimeHistogram(RegClass cls) const
    {
        return lifetimes_[int(cls)];
    }

    /** Recompute counters from scratch and panic on mismatch. */
    void audit() const;
    /// @}

  private:
    struct MapEntry
    {
        PhysRegIndex preg;
        InstSeqNum writerSeq;
    };

    struct File
    {
        std::vector<PhysRegInfo> regs;
        std::vector<PhysRegIndex> freeList;
        /** Registers freed this cycle; allocatable next cycle. */
        std::vector<PhysRegIndex> freedThisCycle;
        std::array<PhysRegIndex, kNumVirtualRegs> map;
        /** Oldest-to-newest unkilled mappings per virtual register
         *  (the newest entry is the current mapping). */
        std::array<std::deque<MapEntry>, kNumVirtualRegs> mappings;
        std::array<std::uint64_t, kNumLiveCats> catCount{};
    };

    File &file(RegClass cls) { return files_[int(cls)]; }
    const File &file(RegClass cls) const { return files_[int(cls)]; }

    void setCat(File &f, PhysRegIndex preg, LiveCat cat);
    /** Check & apply the imprecise freeing conditions. */
    void maybeImpreciseFree(File &f, PhysRegIndex preg);
    void release(File &f, PhysRegIndex preg);

    int numPhysRegs_;
    ExceptionModel model_;
    Cycle now_ = 0;
    std::array<Histogram, kNumRegClasses> lifetimes_;
    std::array<File, kNumRegClasses> files_;
};

} // namespace drsim

#endif // DRSIM_CORE_REGFILE_HH
