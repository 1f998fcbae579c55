/**
 * @file
 * Value-dataflow machinery over a ProgramCfg: the register bitsets
 * every pass shares, liveness with MaxLive, dominators, the
 * dominator-based facts about ProgramCfg's natural loops, and the
 * SSA-style value dependence graph per loop (the loop's must-execute
 * body linearized into one iteration, def->use edges annotated with
 * producer latency and iteration distance).
 *
 * Everything here is *sound in the bound-producing direction* (see
 * bounds.hh): dependence edges are added only when the consumed value
 * provably comes from that producer on every iteration (single writer
 * in the loop body, both endpoints execute every iteration), and
 * latencies use the minimum a producer can take on real hardware
 * (loads count one cycle — the forwarding/hit floor — because the
 * static analysis cannot know the cache).  Dropping an edge can only
 * weaken a lower bound on iteration time, never overstate it.
 *
 * Consumers: the verifier's dead-write pass (analysis.cc reads
 * computeLiveness), bounds.cc (static IPC / register-pressure
 * bounds), `drsim lint --bounds`, and the runtime cross-check gates
 * in src/sim.
 */

#ifndef DRSIM_ANALYSIS_DATAFLOW_HH
#define DRSIM_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "isa/instruction.hh"

namespace drsim {
namespace analysis {

/** Register bitset: bit index = class * 32 + register index. */
using RegSet = std::uint64_t;

constexpr RegSet
regSetBit(RegId r)
{
    return RegSet{1} << (std::size_t(r.cls) * 32u + r.index);
}

/** Renameable source registers of @p inst (zero registers never). */
inline RegSet
readSet(const Instruction &inst)
{
    RegSet set = 0;
    if (inst.src1.renamed())
        set |= regSetBit(inst.src1);
    if (inst.src2.renamed())
        set |= regSetBit(inst.src2);
    return set;
}

/** Renameable destination of @p inst as a bitset (0 if none). */
inline RegSet
writeSet(const Instruction &inst)
{
    return inst.writesReg() ? regSetBit(inst.dest) : RegSet{0};
}

/** Number of set bits belonging to @p cls (zero regs not special). */
int regSetCount(RegSet set, RegClass cls);

/**
 * Producer latency used for static dependence chains: the fixed
 * opTraits latency, floored at one cycle.  Loads carry latency 0 in
 * the opcode table (cache-determined); one cycle is the best any
 * load can do (store-forwarding / an idealized hit), which keeps
 * every chain length a true lower bound on execution time.
 */
int boundLatency(Opcode op);

/** Block iteration order for the liveness fixpoint (the fixpoint
 *  itself is order-independent; tests sweep both). */
enum class IterOrder : std::uint8_t { Forward, Reversed };

/** Backward may-liveness over the CFG (zero registers excluded). */
struct LivenessResult
{
    /** Indexed by block id; zero for empty/unreachable blocks. */
    std::vector<RegSet> liveIn;
    std::vector<RegSet> liveOut;
    /** Fixpoint rounds taken (diagnostics / property tests). */
    int rounds = 0;
};

LivenessResult computeLiveness(const ProgramCfg &cfg,
                               IterOrder order = IterOrder::Forward);

/**
 * Per-class maximum number of simultaneously live virtual registers
 * over every program point of the listed blocks (all reachable blocks
 * when @p blocks is empty).  This is the classic MaxLive lower bound
 * on register demand: any execution that visits the maximizing point
 * holds at least this many values per class.
 */
struct MaxLiveResult
{
    int perClass[kNumRegClasses] = {0, 0};
    /** Block holding the per-class maximum (-1 when no blocks). */
    int block[kNumRegClasses] = {-1, -1};
};

MaxLiveResult computeMaxLive(const ProgramCfg &cfg,
                             const LivenessResult &live,
                             const std::vector<int> &blocks = {});

/**
 * Immediate dominators over reachable blocks (Cooper/Harvey/Kennedy
 * over the reverse postorder).  idom[entry] == entry; -1 for
 * unreachable or empty blocks.
 */
std::vector<int> computeIdoms(const ProgramCfg &cfg);

/** True when @p a dominates @p b (reflexive). */
bool dominates(const std::vector<int> &idom, int a, int b);

/**
 * One of ProgramCfg::loops() with the facts that need dominators.
 * `mustBody` is the subset of the body guaranteed to execute exactly
 * once per iteration: blocks at the loop's own nesting depth that
 * dominate every back-edge tail, in reverse postorder (header first).
 * For irreducible loops (a back edge whose header does not dominate
 * its tail) `reducible` is false and `mustBody` stays empty — the
 * recurrence analysis refuses to guess.
 */
struct NaturalLoop : ProgramCfg::Loop
{
    /** Nesting depth of the header (1 = outermost loop). */
    int depth = 0;
    bool reducible = true;
    /** No other loop header nested inside this body. */
    bool innermost = true;
    std::vector<int> mustBody;
};

/** cfg.loops() in the same order, with @p idom's facts added. */
std::vector<NaturalLoop> findNaturalLoops(const ProgramCfg &cfg,
                                          const std::vector<int> &idom);

/**
 * The per-loop value dependence graph: nodes are the must-execute
 * instructions of one iteration in order; edges are def->use value
 * dependences weighted by the producer's latency, with distance 0
 * (same iteration) or 1 (loop-carried, via the iteration's last
 * writer).  Registers also written by a conditionally executed body
 * block contribute no edges — their producer varies by path, so any
 * single edge could overstate the recurrence.
 */
struct DepNode
{
    CodeLoc loc;
    Opcode op = Opcode::Halt;
    int latency = 1;
};

struct DepEdge
{
    int from = 0;
    int to = 0;
    int latency = 1;
    /** Iteration distance: 0 intra-iteration, 1 loop-carried. */
    int distance = 0;
};

struct LoopDepGraph
{
    std::vector<DepNode> nodes;
    std::vector<DepEdge> edges;
};

LoopDepGraph buildLoopDepGraph(const ProgramCfg &cfg,
                               const NaturalLoop &loop);

/**
 * Maximum cycle ratio sum(latency)/sum(distance) over the dependence
 * graph's cycles — the recurrence-constrained minimum initiation
 * interval (cycles per iteration).  0 when the graph is acyclic.
 * Computed by bisection with a positive-cycle (Bellman-Ford) test;
 * the returned value errs low, preserving bound soundness.
 */
double maxCycleRatio(const LoopDepGraph &graph);

/**
 * Resource-oblivious dataflow critical path of a single pass over the
 * program (back/retreating edges cut): the longest latency-weighted
 * def->use chain assuming infinite issue bandwidth.  The static
 * analogue of "how fast could this run with unbounded resources,
 * loops unrolled once".
 */
double dataflowCriticalPath(const ProgramCfg &cfg);

} // namespace analysis
} // namespace drsim

#endif // DRSIM_ANALYSIS_DATAFLOW_HH
