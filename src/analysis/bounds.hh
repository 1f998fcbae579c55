/**
 * @file
 * Static performance and register-pressure bounds — the "dataflow
 * oracle" every simulation result must respect (DESIGN.md §5i).
 *
 * From a Program's CFG and value dependence graphs this derives:
 *
 *  - per-class static MaxLive (a lower bound on simultaneous live
 *    values, the static analogue of the paper's instantaneous
 *    register-demand measurements) and loop-weighted live-range
 *    length distributions (the static analogue of the Figure 2/3
 *    lifetime curves);
 *  - the resource-oblivious dataflow critical path and, per
 *    innermost loop, the recurrence-constrained initiation interval
 *    and IPC upper bound min(issue_width, ops / max(rec_II, res_II));
 *  - a heuristic minimum-physical-registers-to-avoid-stall estimate
 *    per class (Little's law over the steady-state allocation rate).
 *
 * Every bound errs in the direction that keeps the runtime
 * cross-check gates (sim/simulator.cc) sound: the IPC bound can only
 * be too high, MaxLive can only be too low, so a gate violation
 * always indicates a real accounting or scheduling bug.
 */

#ifndef DRSIM_ANALYSIS_BOUNDS_HH
#define DRSIM_ANALYSIS_BOUNDS_HH

#include <string>
#include <vector>

#include "analysis/dataflow.hh"
#include "common/json.hh"
#include "workloads/program.hh"

namespace drsim {
namespace analysis {

/**
 * Per-cycle issue resources, mirroring CoreConfig's derived limits
 * (core/config.hh) without depending on src/core — the analysis layer
 * sits below it.  `forIssueWidth` reproduces the paper's scaling; the
 * simulator gates rebuild one from a live CoreConfig so the two can
 * never drift apart silently.
 */
struct MachineLimits
{
    int issueWidth = 4;
    int intIssue = 4;    ///< IntAlu + IntMult slots per cycle
    int fpIssue = 2;     ///< FpAdd + FpDiv slots per cycle
    int fpDivIssue = 1;  ///< FpDiv slots per cycle
    int memIssue = 2;    ///< loads + stores per cycle
    int ctrlIssue = 1;   ///< branches per cycle
    int fpDividers = 1;  ///< unpipelined divide/sqrt units

    static MachineLimits forIssueWidth(int width);
};

/** Bounds for one natural loop (innermost ones carry the IPC bound). */
struct LoopBound
{
    int header = -1;
    int depth = 0;
    bool innermost = true;
    bool reducible = true;
    /** Static instructions in the full loop body / the must-execute
     *  (once-per-iteration) subset. */
    int bodyInsts = 0;
    int mustInsts = 0;
    /** Recurrence-constrained min cycles/iteration (0 = none). */
    double recII = 0.0;
    /** Issue-resource min cycles/iteration over the must body. */
    double resII = 0.0;
    /** min(issue_width, bodyInsts / max(recII, resII)); 0 when the
     *  loop yields no usable bound (irreducible / empty must body). */
    double ipcBound = 0.0;
    /** Static MaxLive restricted to the loop body's program points. */
    int maxLive[kNumRegClasses] = {0, 0};
};

/** Summary of a loop-weighted live-range length distribution. */
struct LiveRangeStats
{
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t max = 0;
    std::uint64_t samples = 0;
};

struct BoundsReport
{
    std::string program;
    MachineLimits limits;
    /** False when the CFG is structurally broken; all bounds zero. */
    bool valid = false;

    /** Whole-program static MaxLive per class. */
    int maxLive[kNumRegClasses] = {0, 0};
    /** Resource-oblivious critical path, loops unrolled once. */
    double criticalPathCycles = 0.0;
    /**
     * Sound whole-program IPC upper bound used by the runtime gate:
     * the loop bounds only constrain the whole run when every
     * reachable instruction sits in a bounded innermost loop —
     * otherwise the unconstrained region can commit at full width
     * and the bound falls back to issueWidth.
     */
    double ipcBound = 0.0;
    /** Max over innermost-loop IPC bounds (steady-state rate a
     *  loop-dominated run approaches); 0 when no loop yields one. */
    double steadyIpcBound = 0.0;
    /** Heuristic min physical registers per class to avoid
     *  allocation stalls in steady state (>= 32 by construction). */
    int minRegsEstimate[kNumRegClasses] = {0, 0};
    /** Loop-weighted static live-range lengths (instructions between
     *  a def and its last use), per class. */
    LiveRangeStats liveRange[kNumRegClasses];

    std::vector<LoopBound> loops;
};

BoundsReport computeBounds(const Program &program,
                           const MachineLimits &limits);

/** Human-readable multi-line rendering (`drsim lint --bounds`). */
std::string formatBounds(const BoundsReport &report);

/** Compact JSON object, schema "drsim-bounds-v1". */
std::string boundsToJson(const BoundsReport &report);

/** boundsToJson() as one object at @p w's current position. */
void writeBounds(json::Writer &w, const BoundsReport &report);

} // namespace analysis
} // namespace drsim

#endif // DRSIM_ANALYSIS_BOUNDS_HH
