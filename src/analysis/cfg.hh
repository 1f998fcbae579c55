/**
 * @file
 * Control-flow graph over a finalized Program, shared by every
 * analysis pass.
 *
 * Nodes are the program's non-empty basic blocks (empty blocks are
 * label aliases that `Program::blockEntryResolved()` skips).  Edges
 * follow the ISA's control-flow semantics:
 *
 *   Halt         — no successors (an exit node);
 *   Br / Jsr     — the resolved target block;
 *   Ret          — every Jsr fallthrough block (the static
 *                  over-approximation of "returns to its caller");
 *                  a Ret with no call site in the program is treated
 *                  as an exit, conservatively;
 *   conditional  — resolved target + fallthrough;
 *   anything else — fallthrough to the next non-empty block.
 *
 * Construction also performs the structural checks (dangling branch
 * targets, falling off the end of the code segment, empty programs)
 * and records their findings; downstream passes skip structurally
 * broken programs.  It then derives everything that needs no
 * dominators: reachability, the reverse postorder, and the natural
 * loops (the one back-edge search in src/analysis) with each block's
 * nesting depth.
 *
 * Consumers: the verifier passes (analysis.cc), the loop-weighted mix
 * estimate (mix.cc), and the dataflow machinery behind the static
 * bounds (dataflow.cc, bounds.cc), which adds dominator-based facts
 * on top of loops().
 */

#ifndef DRSIM_ANALYSIS_CFG_HH
#define DRSIM_ANALYSIS_CFG_HH

#include <vector>

#include "analysis/analysis.hh"
#include "workloads/program.hh"

namespace drsim {
namespace analysis {

class ProgramCfg
{
  public:
    struct Node
    {
        std::vector<int> succs;
        std::vector<int> preds;
        /** Reachable from the entry block. */
        bool reachable = false;
        /** Some path from here reaches Halt (or an exit-like Ret). */
        bool canExit = false;
        /** Natural-loop nesting depth (0 = straight-line code). */
        int loopDepth = 0;
        /** Next non-empty block in layout order; -1 past the end. */
        int fallthrough = -1;
        /** Position in rpo(); -1 when unreachable. */
        int rpoIndex = -1;
    };

    /**
     * One natural loop: a back-edge header plus every block that
     * reaches one of its back-edge tails without passing through it.
     * A back edge is an edge into a block still on the stack of the
     * depth-first search from the entry.
     */
    struct Loop
    {
        int header = -1;
        /** Tails of the back edges into the header, in DFS order. */
        std::vector<int> tails;
        /** Body block ids, ascending (includes the header). */
        std::vector<int> body;
    };

    explicit ProgramCfg(const Program &program);

    const Program &program() const { return prog_; }

    /** Indexed by program block id; empty blocks have no edges. */
    const std::vector<Node> &nodes() const { return nodes_; }
    const Node &node(int block) const { return nodes_.at(std::size_t(block)); }

    /** Entry block id (first non-empty block); -1 for empty programs. */
    int entry() const { return entry_; }

    /** Reverse postorder over reachable blocks (for forward passes). */
    const std::vector<int> &rpo() const { return rpo_; }

    /** Natural loops, one per distinct header, sorted by header. */
    const std::vector<Loop> &loops() const { return loops_; }

    /** Findings raised while building (structural errors). */
    const std::vector<Finding> &structuralFindings() const
    {
        return structural_;
    }

    /** False when the graph is too broken for dataflow passes. */
    bool valid() const { return valid_; }

  private:
    void addEdge(int from, int to);
    void computeReachability();
    void computeLoops();

    const Program &prog_;
    std::vector<Node> nodes_;
    std::vector<int> rpo_;
    std::vector<Loop> loops_;
    std::vector<Finding> structural_;
    int entry_ = -1;
    bool valid_ = false;
};

} // namespace analysis
} // namespace drsim

#endif // DRSIM_ANALYSIS_CFG_HH
