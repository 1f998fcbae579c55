/**
 * @file
 * Architectural emulator: the functional half of the execution-driven
 * simulation.
 *
 * The timing core calls step() once per fetched instruction, so the
 * emulator's state follows the *speculative* fetch path — including
 * wrong paths after a mispredicted branch.  A checkpoint is taken at
 * every conditional branch; when the timing core detects the
 * misprediction at branch execution it rolls the emulator back to the
 * checkpoint and resumes fetch down the correct path.
 *
 * Rollback uses a single undo log (register writes and memory writes)
 * rather than full state snapshots, so checkpoints are just marks into
 * that log.  Entries older than the oldest live checkpoint are pruned.
 *
 * The ISA's data semantics live in one place, the private execute():
 * step() and stepArch() (undo-logged writes, CodeLoc control flow) and
 * fastForward() (raw writes over a predecoded table) only apply what
 * it computes, so the functional fast-forward runs exactly the ISA the
 * timing core fetches.
 */

#ifndef DRSIM_WORKLOADS_EMULATOR_HH
#define DRSIM_WORKLOADS_EMULATOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "workloads/program.hh"

namespace drsim {

/** Everything the timing model needs to know about one executed step. */
struct StepInfo
{
    const Instruction *inst = nullptr;
    Addr pc = 0;
    /** Raw bits written to the destination register (if any). */
    std::uint64_t destBits = 0;
    /** Effective address of a memory operation (8-byte aligned). */
    Addr effAddr = 0;
    /** Raw bits a store writes to memory. */
    std::uint64_t storeBits = 0;
    /** Conditional branches: the outcome on the current fetch path. */
    bool actualTaken = false;
    /** PC execution proceeds to if the instruction is followed
     *  architecturally (i.e. the *correct* next PC). */
    Addr actualNextPc = 0;
    bool isHalt = false;
};

/** Opaque checkpoint handle (a mark into the undo log). */
using EmuCheckpoint = std::uint64_t;

/**
 * A full architectural snapshot of the emulator: everything needed to
 * resume functional execution from an arbitrary point.  Unlike the
 * undo-log checkpoints (which only live while the timing core holds a
 * mark), an EmuArchState is self-contained — the sampling library
 * keeps one per window in memory and restores it into a fresh
 * emulator; tests save, keep running, and restore later.
 */
struct EmuArchState
{
    CodeLoc loc;
    std::array<std::uint64_t, kNumVirtualRegs> intRegs{};
    std::array<double, kNumVirtualRegs> fpRegs{};
    std::vector<std::uint64_t> data;
    Addr dataLimit = 0;
    std::unordered_map<Addr, std::uint64_t> mem;
    std::uint64_t steps = 0;
};

class Emulator
{
  public:
    /** The caller keeps @p prog alive for the emulator's lifetime. */
    explicit Emulator(const Program &prog);

    /** Owning overload: safe to pass a temporary Program. */
    explicit Emulator(Program &&prog);

    /**
     * Construct directly in a restored architectural state: the
     * initial program image is never materialized, so the cost is one
     * bulk copy of @p state instead of a zero-fill plus a word-by-word
     * image build plus a second bulk copy.  Equivalent to
     * `Emulator(prog)` followed by `restoreArchState(state)`; @p state
     * must have been saved from an emulator running @p prog.
     */
    Emulator(const Program &prog, const EmuArchState &state);

    /**
     * True when no instruction can be fetched: the program halted on
     * the current path, or a wrong-path indirect jump left the PC
     * outside the code segment.  Cleared by rollback().
     */
    bool fetchBlocked() const { return !loc_.valid(); }

    /** PC of the next instruction to fetch (only if !fetchBlocked()). */
    Addr pc() const;

    /** Instruction at the current PC, or nullptr if fetch is blocked. */
    const Instruction *peek() const;

    /**
     * Execute the instruction at the current PC and advance.
     * Conditional branches advance down the direction @p follow_taken
     * (the predicted direction); all other instructions advance
     * architecturally.
     */
    StepInfo step(bool follow_taken);

    /** Convenience for functional-only runs: follow actual outcomes. */
    StepInfo stepArch();

    /**
     * Observer of the fast-forward instruction stream (functional
     * warming, DESIGN.md §5j).  Callbacks fire per executed
     * instruction, in program order, with the addresses and branch
     * direction its execution computed; the stream is purely
     * architectural, so anything derived from it is a deterministic
     * function of the starting state alone.
     */
    struct FfObserver
    {
        virtual ~FfObserver() = default;
        /** Every instruction, with its PC. */
        virtual void ffFetch(Addr pc) = 0;
        /** Every load/store, with its effective address. */
        virtual void ffMem(Addr addr, bool is_store) = 0;
        /** Every conditional branch, with its resolved direction. */
        virtual void ffBranch(Addr pc, bool taken) = 0;
    };

    /** Attach (or with nullptr detach) a fast-forward observer.  The
     *  hook costs nothing per instruction when unset. */
    void setFfObserver(FfObserver *obs) { ffObs_ = obs; }

    /**
     * Functional fast-forward: architecturally execute up to @p n
     * instructions with no undo logging and no StepInfo population.
     * Stops early when fetch blocks or the next instruction is Halt
     * (the Halt is left unexecuted so a subsequent detailed run still
     * fetches and commits it).  Returns the number of instructions
     * actually executed.  Must not be called with live checkpoints:
     * skipping the undo log would make them unrollbackable.
     *
     * Runs the same instruction semantics as stepArch() on a
     * lazily-built predecoded flat instruction table (operand indices
     * and branch targets resolved once), bypassing the per-step
     * CodeLoc bookkeeping, undo logging and StepInfo population — the
     * per-instruction emulation floor the sampled legs of
     * `drsim bench simspeed` are bounded by.
     */
    std::uint64_t fastForward(std::uint64_t n);

    /// @name Architectural snapshots (sampling, tests)
    /// @{
    /** Snapshot the full architectural state.  Only valid with no
     *  live checkpoints (speculative state must be unwound first). */
    EmuArchState saveArchState() const;

    /** Restore a snapshot taken from the same program. */
    void restoreArchState(const EmuArchState &state);
    /// @}

    /// @name Checkpointing for wrong-path recovery
    /// @{
    /** Mark the current state (call just before stepping a branch). */
    EmuCheckpoint takeCheckpoint();

    /** Discard a checkpoint (branch completed or was squashed). */
    void releaseCheckpoint(EmuCheckpoint cp);

    /**
     * Undo all state changes made after @p cp and resume fetching at
     * @p resume_pc.  All checkpoints younger than @p cp must have been
     * released first.
     */
    void rollbackTo(EmuCheckpoint cp, Addr resume_pc);

    /** Number of live checkpoints (for tests). */
    std::size_t liveCheckpoints() const { return liveMarks_.size(); }

    /** Undo-log entries currently retained (for tests). */
    std::size_t undoLogSize() const { return undo_.size(); }
    /// @}

    /// @name State inspection (tests, examples)
    /// @{
    std::uint64_t intRegBits(int idx) const { return intRegs_[idx]; }
    double fpRegValue(int idx) const;
    std::uint64_t memWord(Addr addr) const;
    std::uint64_t stepsExecuted() const { return steps_; }
    /** Order-independent digest of registers + memory, for tests. */
    std::uint64_t stateHash() const;
    /// @}

  private:
    Emulator(const Program *external,
             std::unique_ptr<const Program> owned,
             const EmuArchState *restore_from = nullptr);

    struct UndoEntry
    {
        enum class Kind : std::uint8_t { IntReg, FpReg, Mem };
        Kind kind;
        std::uint8_t regIndex;
        Addr addr;
        std::uint64_t oldBits;
    };

    /**
     * What one instruction computes from the current state, before
     * any of it is written back.  Bind it to a non-const local: GCC
     * does not scalarize a const aggregate the inlined execute()
     * writes into, and the result then round-trips through the stack.
     */
    struct Executed
    {
        /** Destination register bits (Jsr: the link PC). */
        std::uint64_t destBits = 0;
        /** Loads and stores: the canonical effective address. */
        Addr effAddr = 0;
        /** Stores: the bits written to memory. */
        std::uint64_t storeBits = 0;
        /** Conditional branches: the resolved direction. */
        bool taken = false;
        /** Ret: the address jumped to. */
        Addr retPc = 0;
    };

    /**
     * The ISA's data semantics, written once: evaluate @p op on the
     * register operands @p src1 / @p src2 (indices,
     * RegId::kInvalidIndex when absent) and @p imm.  @p fall_pc is the
     * fallthrough PC a Jsr links.  Reads memory for loads; writes no
     * state.  Force-inlined so each driver's loop compiles to one
     * dispatch.
     */
    [[gnu::always_inline]] inline Executed
    execute(Opcode op, std::uint8_t src1, std::uint8_t src2,
            std::int64_t imm, Addr fall_pc) const;

    /**
     * The step()/stepArch() driver: execute the instruction at loc_
     * with undo-logged writes.  A conditional branch advances down
     * its resolved direction when @p arch, else down @p follow_taken.
     */
    [[gnu::always_inline]] inline StepInfo stepAlong(bool arch,
                                                     bool follow_taken);

    /**
     * One predecoded instruction of the fast-forward table: operand
     * register indices as in RegId, branch targets resolved to flat
     * table indices, the fallthrough's PC precomputed for Jsr.
     */
    struct FFInst
    {
        Opcode op;
        std::uint8_t destCls;  ///< 0 int, 1 fp, 0xff no renamed dest
        std::uint8_t dest;
        std::uint8_t src1;     ///< register index, 0xff invalid
        std::uint8_t src2;
        std::int64_t imm;
        std::int32_t fall;     ///< flat index of fallthrough, -1 none
        std::int32_t target;   ///< flat index of branch target, -1 none
        Addr fallPc;           ///< PC of fallthrough (Jsr link value)
    };

    void buildFFTable();
    /**
     * The fastForward() loop.  Instantiated apart for the unobserved
     * case: keeping the observer's operands live across its virtual
     * calls costs the plain loop registers.  Cache-line aligned, so
     * its speed does not shift with where the linker places it.
     */
    template <bool Observed>
    [[gnu::aligned(64)]] std::uint64_t fastForwardLoop(std::uint64_t n);
    std::int32_t ffIndexOf(CodeLoc loc) const;

    /** Register reads by index; the zero register and an absent
     *  operand (RegId::kInvalidIndex) read as zero, one compare. */
    static_assert(kZeroReg == kNumVirtualRegs - 1,
                  "intAt()/fpAt() read every index >= kZeroReg as 0");
    std::uint64_t
    intAt(std::uint8_t idx) const
    {
        return idx < kZeroReg ? intRegs_[idx] : 0;
    }
    double
    fpAt(std::uint8_t idx) const
    {
        return idx < kZeroReg ? fpRegs_[idx] : 0.0;
    }
    void writeInt(int idx, std::uint64_t bits);
    void writeFp(int idx, double value);
    void writeMem(Addr addr, std::uint64_t bits);
    /** Store without undo logging (rollback replay). */
    void rawWriteMem(Addr addr, std::uint64_t bits);
    bool
    inDataSegment(Addr addr) const
    {
        return addr >= kDataBase && addr < dataLimit_;
    }
    void pruneUndo();

    /** Set only by the owning constructor. */
    std::unique_ptr<const Program> ownedProg_;
    const Program &prog_;
    CodeLoc loc_;
    std::array<std::uint64_t, kNumVirtualRegs> intRegs_{};
    std::array<double, kNumVirtualRegs> fpRegs_{};
    /**
     * Data-segment words, indexed by (addr - kDataBase) / 8.  The
     * kernels' memory traffic is overwhelmingly to the bump-allocated
     * segment [kDataBase, dataLimit()), so it gets a flat array; only
     * wrong-path garbage addresses fall through to the hash map.
     */
    std::vector<std::uint64_t> data_;
    Addr dataLimit_ = kDataBase;
    std::unordered_map<Addr, std::uint64_t> mem_;
    std::uint64_t steps_ = 0;

    std::deque<UndoEntry> undo_;
    /** Fast-forward stream observer (nullptr = none). */
    FfObserver *ffObs_ = nullptr;
    /** Global index of undo_.front(). */
    std::uint64_t undoBase_ = 0;
    /** Live checkpoint marks -> reference count. */
    std::map<std::uint64_t, int> liveMarks_;

    /// @name Fast-forward predecode (built on first fastForward())
    /// @{
    std::vector<FFInst> ffTable_;
    /** Flat index -> CodeLoc (to restore loc_ on exit). */
    std::vector<CodeLoc> ffLocs_;
    /** Block index -> flat index of its first instruction at-or-after
     *  (empty blocks resolve forward, mirroring blockEntryResolved). */
    std::vector<std::int32_t> ffBlockBase_;
    /// @}
};

} // namespace drsim

#endif // DRSIM_WORKLOADS_EMULATOR_HH
