/**
 * @file
 * Static instruction definition for the drsim RISC ISA.
 *
 * The ISA is a compact Alpha-flavoured load/store architecture.  It
 * exists to drive the timing model, so it carries exactly the
 * functional-unit classes, latencies and register semantics the paper's
 * machine model distinguishes — nothing more.
 */

#ifndef DRSIM_ISA_INSTRUCTION_HH
#define DRSIM_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/reg.hh"

namespace drsim {

/**
 * Functional-unit classes.  These drive the per-cycle issue limits
 * (Section 2.1 of the paper) and the operation latencies.
 */
enum class OpClass : std::uint8_t {
    IntAlu,     ///< 1-cycle integer ops (incl. compares and Halt)
    IntMult,    ///< 6-cycle fully pipelined integer multiply
    FpAdd,      ///< 3-cycle fully pipelined FP add/mul/convert/compare
    FpDiv,      ///< unpipelined FP divide (8/16 cycles) and sqrt (16)
    MemLoad,    ///< loads; latency set by the data cache
    MemStore,   ///< stores; resolve in 1 cycle, write cache at commit
    CtrlCond,   ///< conditional branches (the only exception source)
    CtrlUncond, ///< unconditional branch / call / return (100% predicted)
};

enum class Opcode : std::uint8_t {
    // Integer ALU (operand b is src2 if valid, else the immediate).
    Add, Sub, And, Or, Xor, Sll, Srl,
    Cmplt,  ///< dest = (a < b)  ? 1 : 0  (signed)
    Cmple,  ///< dest = (a <= b) ? 1 : 0  (signed)
    Cmpeq,  ///< dest = (a == b) ? 1 : 0
    Mul,    ///< integer multiply (IntMult class)

    // Floating point.
    Fadd, Fsub, Fmul,
    Fcmplt, ///< dest = (a < b) ? 1.0 : 0.0
    Itof,   ///< int reg -> fp reg conversion (FpAdd class)
    Ftoi,   ///< fp reg -> int reg truncation (FpAdd class)
    Fdivs,  ///< single-precision divide, 8 cycles, unpipelined
    Fdivd,  ///< double-precision divide, 16 cycles, unpipelined
    Fsqrt,  ///< square root, 16 cycles, unpipelined

    // Memory (8-byte accesses; address = src1 + imm).
    Ldq,    ///< load into an integer register
    Ldt,    ///< load into an FP register
    Stq,    ///< store an integer register (value = src2)
    Stt,    ///< store an FP register (value = src2)

    // Control flow.  `target` is a basic-block index.
    Beq,    ///< taken if int src1 == 0
    Bne,    ///< taken if int src1 != 0
    Fbeq,   ///< taken if fp src1 == 0.0
    Fbne,   ///< taken if fp src1 != 0.0
    Br,     ///< unconditional branch
    Jsr,    ///< call: dest (int) = return PC, jump to target block
    Ret,    ///< return: jump to address in int src1

    Halt,   ///< architectural end of program
};

/** Number of distinct opcodes (for table sizing). */
constexpr int kNumOpcodes = static_cast<int>(Opcode::Halt) + 1;

/** Static per-opcode properties. */
struct OpTraits
{
    const char *name;
    OpClass cls;
    /** Execution latency; 0 for loads (cache-determined). */
    int latency;
};

namespace detail {

/**
 * Latency table per Section 2.1 of the paper: integer units are
 * single-cycle except the fully pipelined 6-cycle multiplier; FP units
 * are 3-cycle fully pipelined except the unpipelined divider (8 cycles
 * single precision, 16 cycles double precision); stores resolve in one
 * cycle; loads get their latency from the data cache.
 */
inline constexpr std::array<OpTraits, kNumOpcodes> kOpTraits = {{
    {"add",    OpClass::IntAlu,     1},
    {"sub",    OpClass::IntAlu,     1},
    {"and",    OpClass::IntAlu,     1},
    {"or",     OpClass::IntAlu,     1},
    {"xor",    OpClass::IntAlu,     1},
    {"sll",    OpClass::IntAlu,     1},
    {"srl",    OpClass::IntAlu,     1},
    {"cmplt",  OpClass::IntAlu,     1},
    {"cmple",  OpClass::IntAlu,     1},
    {"cmpeq",  OpClass::IntAlu,     1},
    {"mul",    OpClass::IntMult,    6},
    {"fadd",   OpClass::FpAdd,      3},
    {"fsub",   OpClass::FpAdd,      3},
    {"fmul",   OpClass::FpAdd,      3},
    {"fcmplt", OpClass::FpAdd,      3},
    {"itof",   OpClass::FpAdd,      3},
    {"ftoi",   OpClass::FpAdd,      3},
    {"fdivs",  OpClass::FpDiv,      8},
    {"fdivd",  OpClass::FpDiv,      16},
    {"fsqrt",  OpClass::FpDiv,      16},
    {"ldq",    OpClass::MemLoad,    0},
    {"ldt",    OpClass::MemLoad,    0},
    {"stq",    OpClass::MemStore,   1},
    {"stt",    OpClass::MemStore,   1},
    {"beq",    OpClass::CtrlCond,   1},
    {"bne",    OpClass::CtrlCond,   1},
    {"fbeq",   OpClass::CtrlCond,   1},
    {"fbne",   OpClass::CtrlCond,   1},
    {"br",     OpClass::CtrlUncond, 1},
    {"jsr",    OpClass::CtrlUncond, 1},
    {"ret",    OpClass::CtrlUncond, 1},
    {"halt",   OpClass::IntAlu,     1},
}};

// A non-load op completing in the cycle it issues would break both the
// event ring and every static bound.
static_assert([] {
    for (const OpTraits &t : kOpTraits)
        if (t.cls != OpClass::MemLoad && t.latency < 1)
            return false;
    return true;
}(), "every non-load opcode needs a latency of at least one cycle");

} // namespace detail

/**
 * Traits lookup.  The scheduler consults this tens of times per cycle,
 * so it must compile down to a single indexed load; out-of-range
 * opcodes are ruled out up front by verifyProgram() (every simulation
 * entry point runs it), not re-checked here.
 */
constexpr const OpTraits &
opTraits(Opcode op)
{
    return detail::kOpTraits[static_cast<std::size_t>(op)];
}

/** The largest fixed execution latency in the opcode table (loads are
 *  cache-determined and excluded).  Sizes the completion event ring. */
constexpr int
maxOpLatency()
{
    int m = 0;
    for (const OpTraits &t : detail::kOpTraits)
        m = m > t.latency ? m : t.latency;
    return m;
}

/** Convenience: the functional-unit class of an opcode. */
inline OpClass opClassOf(Opcode op) { return opTraits(op).cls; }

/** A static instruction as stored in a Program's basic blocks. */
struct Instruction
{
    Opcode op = Opcode::Halt;
    RegId dest;            ///< invalid if the op produces no value
    RegId src1;            ///< invalid if unused
    RegId src2;            ///< invalid if unused (ALU b-operand = imm)
    std::int64_t imm = 0;  ///< immediate / address displacement
    std::int32_t target = -1; ///< basic-block index for control flow

    OpClass cls() const { return opClassOf(op); }

    bool isLoad() const { return cls() == OpClass::MemLoad; }
    bool isStore() const { return cls() == OpClass::MemStore; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isCondBranch() const { return cls() == OpClass::CtrlCond; }
    bool
    isControl() const
    {
        return cls() == OpClass::CtrlCond || cls() == OpClass::CtrlUncond;
    }
    bool isHalt() const { return op == Opcode::Halt; }

    /** True if the instruction allocates a physical register. */
    bool writesReg() const { return dest.renamed(); }
};

/** Human-readable rendering, e.g. "add r1, r2, r3" or "ldq r4, 16(r5)". */
std::string disassemble(const Instruction &inst);

} // namespace drsim

#endif // DRSIM_ISA_INSTRUCTION_HH
