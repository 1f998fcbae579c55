/**
 * @file
 * Static program representation: a control-flow graph of basic blocks
 * plus an initial data image.
 *
 * Programs stand in for the paper's ATOM-instrumented Alpha binaries.
 * Code is laid out at kCodeBase with 4-byte instruction slots so that
 * every instruction has a real PC for the branch predictor and the
 * instruction cache to index.
 */

#ifndef DRSIM_WORKLOADS_PROGRAM_HH
#define DRSIM_WORKLOADS_PROGRAM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace drsim {

/** Base address of the code segment. */
constexpr Addr kCodeBase = 0x1000;

/** Base address of the data segment (bump-allocated by ProgramBuilder). */
constexpr Addr kDataBase = 0x1000'0000;

/** Bytes per instruction slot. */
constexpr Addr kInstBytes = 4;

/** A straight-line run of instructions ending in at most one branch. */
struct BasicBlock
{
    std::vector<Instruction> insts;
    /** PC of the first instruction (assigned by Program::finalize). */
    Addr startPc = 0;
};

/** One initialized (8-byte-aligned) data word. */
struct DataWord
{
    Addr addr;
    std::uint64_t value;
};

/** A position in the program: block index + instruction offset. */
struct CodeLoc
{
    std::int32_t block = -1;
    std::int32_t offset = 0;

    bool valid() const { return block >= 0; }
    bool operator==(const CodeLoc &o) const = default;
};

/**
 * A complete program: CFG, code layout, and initial memory words.
 * Built via ProgramBuilder; immutable afterwards.
 */
class Program
{
  public:
    /** Lay out code addresses; must be called once after construction. */
    void finalize();

    const std::string &name() const { return name_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    const BasicBlock &block(int idx) const { return blocks_.at(idx); }

    /** Total number of static instructions. */
    std::size_t numInsts() const { return numInsts_; }

    /** Entry point. */
    CodeLoc entry() const { return {entryBlock_, 0}; }

    /** PC of the instruction at @p loc.  On the fetch/emulate fast
     *  path (several calls per simulated cycle), hence inline. */
    Addr
    pcOf(CodeLoc loc) const
    {
        return blocks_[std::size_t(loc.block)].startPc +
               Addr(loc.offset) * kInstBytes;
    }

    /** Location for @p pc; invalid CodeLoc if pc is not code. */
    CodeLoc locOf(Addr pc) const;

    /** Instruction at @p loc (must be valid). */
    const Instruction &
    instAt(CodeLoc loc) const
    {
        return blocks_[std::size_t(loc.block)]
            .insts[std::size_t(loc.offset)];
    }

    /**
     * Location following @p loc in layout order (fallthrough);
     * invalid if @p loc was the last instruction of the last block.
     */
    CodeLoc
    nextLoc(CodeLoc loc) const
    {
        const auto &bb = blocks_[std::size_t(loc.block)];
        if (loc.offset + 1 < std::int32_t(bb.insts.size()))
            return {loc.block, loc.offset + 1};
        return nextLocSlow(loc);
    }

    /** First location of block @p block. */
    CodeLoc blockEntry(int block) const { return {block, 0}; }

    /**
     * First executable location at or after block @p block, skipping
     * empty blocks (a label bound right before another label).
     */
    CodeLoc blockEntryResolved(int block) const;

    /** The initial data image: every initialized word once, in
     *  ascending address order. */
    const std::vector<DataWord> &initialWords() const
    {
        return initialWords_;
    }

    /** Initial value of the word at @p addr; nullopt when the
     *  program does not initialize it. */
    std::optional<std::uint64_t> initialWord(Addr addr) const;

    /// @name Data-segment extent (for static memory-bounds checks)
    /// @{
    /** First byte of the program's data segment. */
    Addr dataBase() const { return kDataBase; }
    /**
     * One past the last allocated/initialized data byte; equals
     * dataBase() when the program declares no data.  Set by
     * ProgramBuilder from its bump allocator and initialized words.
     */
    Addr dataLimit() const { return dataLimit_; }
    /// @}

    /**
     * Cached programDigest() (workloads/digest.hh), filled once by
     * finalize() so the content-addressed caches can key on it without
     * re-hashing the code and data image on every lookup.  Empty only
     * before finalize().
     */
    const std::string &contentDigest() const { return digest_; }

  private:
    friend class ProgramBuilder;

    /** Cross-block fallthrough (skips empty blocks). */
    CodeLoc nextLocSlow(CodeLoc loc) const;

    std::string name_;
    std::vector<BasicBlock> blocks_;
    int entryBlock_ = 0;
    std::size_t numInsts_ = 0;
    std::vector<DataWord> initialWords_;
    Addr dataLimit_ = kDataBase;
    /** Content digest; set by finalize() (see contentDigest()). */
    std::string digest_;
    /** Flat pc -> CodeLoc table, indexed by (pc - kCodeBase) / 4. */
    std::vector<CodeLoc> pcTable_;
    bool finalized_ = false;
};

} // namespace drsim

#endif // DRSIM_WORKLOADS_PROGRAM_HH
