/**
 * @file
 * Declarative experiment grids.
 *
 * A GridDef describes one sweep as data: a base machine configuration
 * plus an ordered list of axes (issue width, register count, exception
 * model, cache kind, dispatch-queue size, MSHR/write-buffer bounds, or
 * arbitrary named variants).  expandGrid() walks the cross product in
 * row-major order — the first axis is the outermost loop — producing
 * exactly the ExperimentSpec vector the hand-rolled harness loops used
 * to build, including the legacy spec names ("w4-precise-r80"):
 * every axis value carries a name fragment, and fragments are joined
 * in a canonical rank order (width, model, regs, cache, rest) that is
 * independent of the nesting order, because the legacy harnesses
 * nested their loops one way and spelled their names another.
 *
 * The expansion is deliberately free of I/O and environment reads so
 * `drsim bench --dry-run` can audit a sweep without running it and
 * tests can assert counts and orderings cheaply.
 */

#ifndef DRSIM_EXP_GRID_HH
#define DRSIM_EXP_GRID_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hh"

namespace drsim {
namespace exp {

/** One point on one axis: a name fragment (may be empty, meaning it
 *  contributes nothing to the spec name) and the config edit. */
struct AxisValue
{
    std::string fragment;
    std::function<void(CoreConfig &)> apply;
};

/// @name Canonical fragment ranks (legacy spec-name order)
/// @{
constexpr int kRankWidth = 10;
constexpr int kRankModel = 20;
constexpr int kRankRegs = 30;
constexpr int kRankCache = 40;
constexpr int kRankOther = 50;
/// @}

/** One swept dimension. */
struct Axis
{
    /** Axis identity for --dry-run and spec files, e.g. "width". */
    std::string label;
    /** Position of this axis's fragment in the assembled spec name
     *  (kRank*); ties keep axis declaration order. */
    int nameRank = kRankOther;
    std::vector<AxisValue> values;
};

/** A declarative sweep: base config x cross product of axes. */
struct GridDef
{
    /** Leading name fragment shared by every spec ("compress",
     *  "lifetime"); empty for most grids. */
    std::string namePrefix;
    CoreConfig base;
    /** Nesting order: axes[0] is the outermost loop. */
    std::vector<Axis> axes;
};

/// @name Axis factories (paper Figure-2 machine conventions)
/// @{

/** Issue width; also sets the paper's cost-effective dispatch-queue
 *  size (32 entries at 4-way, 64 at 8-way).  Fragments "w4", "w8". */
Axis widthAxis(const std::vector<int> &widths);

/** Dispatch-queue size override (after widthAxis in nesting order).
 *  Fragments "dq8".."dq256". */
Axis dqAxis(const std::vector<int> &sizes);

/** Physical registers per file.  Fragments "r32".."r2048". */
Axis regsAxis(const std::vector<int> &regs);

/** Exception model.  Fragments "precise"/"imprecise". */
Axis modelAxis(const std::vector<ExceptionModel> &models);

/** Data-cache organization.  Fragments from cacheKindName(). */
Axis cacheAxis(const std::vector<CacheKind> &kinds);

/** Lockup-free MSHR bound (0 = the paper's unlimited organization).
 *  Fragments "mshr1".."mshr16", "mshr-unlimited". */
Axis mshrAxis(const std::vector<std::uint32_t> &bounds);

/** Write-buffer entry bound (0 = the paper's infinite free buffer).
 *  Fragments "wb1".."wb16", "wb-unlimited". */
Axis writeBufferAxis(const std::vector<std::uint32_t> &entries);

/** Write-buffer drain period in cycles.  Fragments "drain4"... */
Axis writeBufferDrainAxis(const std::vector<Cycle> &cycles);

/** Branch-predictor backend (makeBranchPredictor() specs).
 *  Fragments are the spec names: "mcfarling", "gshare", ... */
Axis predictorAxis(const std::vector<std::string> &specs);

/** Result-bus count (0 = the paper's unlimited writeback).
 *  Fragments "bus1".."bus8", "bus-unlimited". */
Axis resultBusAxis(const std::vector<int> &buses);

/** Arbitrary named variants (the ablation studies). */
Axis variantAxis(const std::string &label,
                 std::vector<AxisValue> values);
/// @}

/** Number of specs expandGrid() will produce. */
std::size_t gridPoints(const GridDef &grid);

/**
 * Expand the cross product into named ExperimentSpecs, deterministic
 * in both ordering (row-major over the axes as declared) and naming
 * (prefix first, then fragments by rank).
 */
std::vector<ExperimentSpec> expandGrid(const GridDef &grid);

/** expandGrid() over several grids, concatenated in order. */
std::vector<ExperimentSpec>
expandGrids(const std::vector<GridDef> &grids);

} // namespace exp
} // namespace drsim

#endif // DRSIM_EXP_GRID_HH
