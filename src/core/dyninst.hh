/**
 * @file
 * A dynamic (in-flight) instruction.
 */

#ifndef DRSIM_CORE_DYNINST_HH
#define DRSIM_CORE_DYNINST_HH

#include "common/types.hh"
#include "isa/instruction.hh"
#include "workloads/emulator.hh"

namespace drsim {

/** Lifecycle of a dynamic instruction. */
enum class InstState : std::uint8_t {
    InQueue,   ///< inserted, waiting in the dispatch queue
    Issued,    ///< executing (in flight)
    Completed, ///< result produced / state-changing point reached
    Committed, ///< completed with all preceding instructions completed
};

struct DynInst
{
    InstUid uid = 0;
    InstSeqNum seq = 0;
    const Instruction *si = nullptr;
    Addr pc = 0;
    InstState state = InstState::InQueue;

    /// @name Renaming
    /// @{
    PhysRegIndex physDest = kInvalidPhysReg;
    /** Mapping retired by this instruction's rename (freed under the
     *  precise model when this instruction commits). */
    PhysRegIndex prevDest = kInvalidPhysReg;
    PhysRegIndex physSrc1 = kInvalidPhysReg;
    PhysRegIndex physSrc2 = kInvalidPhysReg;
    /// @}

    /// @name Memory
    /// @{
    Addr effAddr = 0;
    /** Cache fetch this load waits on (-1 none). */
    std::int64_t fetchId = -1;
    /** Load serviced by store-to-load forwarding. */
    bool forwarded = false;
    bool cacheMiss = false;
    /// @}

    /// @name Control flow
    /// @{
    bool predictedTaken = false;
    bool actualTaken = false;
    bool mispredicted = false;
    /** Opaque predictor-history token captured before this branch's
     *  speculative update (BranchPredictor::history()). */
    std::uint64_t historyBefore = 0;
    /** Emulator checkpoint (conditional branches only). */
    EmuCheckpoint emuCp = 0;
    bool hasEmuCp = false;
    /** Correct-path PC after this instruction. */
    Addr actualNextPc = 0;
    /// @}

    /** Unpipelined divider unit occupied (-1 none). */
    int divUnit = -1;

    /** Source operands still pending (not yet woken by a producer);
     *  the instruction enters a ready queue when this reaches zero. */
    std::uint8_t waitingOps = 0;

    Cycle insertCycle = 0;
    Cycle issueCycle = kInvalidCycle;
    Cycle completeCycle = kInvalidCycle;

    bool isLoad() const { return si->isLoad(); }
    bool isStore() const { return si->isStore(); }
    bool isCondBranch() const { return si->isCondBranch(); }
    bool writesReg() const { return si->writesReg(); }
    bool completed() const
    { return state == InstState::Completed ||
             state == InstState::Committed; }
};

} // namespace drsim

#endif // DRSIM_CORE_DYNINST_HH
