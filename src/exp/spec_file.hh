/**
 * @file
 * JSON sweep-spec files: a declarative, on-disk description of a
 * config grid that `drsim bench --spec <file>` can run without
 * recompiling — the same axes the built-in experiments use (issue
 * width, dispatch-queue size, register count, exception model, cache
 * kind, MSHR bound, write-buffer geometry), expanded by the same
 * grid machinery, so names and orderings follow the registry's
 * conventions.  A parsed spec becomes an ExperimentDef
 * (specExperiment), so it runs, dry-runs, filters, takes the run
 * options and is served exactly as a registered experiment is.
 *
 * Document shape (all axis arrays optional; absent = keep the paper
 * baseline for that knob):
 *
 *   {
 *     "name": "my-sweep",
 *     "description": "what this sweep shows",
 *     "suite": "spec92",              // or "classic"
 *     "export": false,                // write <name>_results.json?
 *     "axes": {
 *       "width": [4, 8],
 *       "dq": [32, 64],
 *       "regs": [64, 128],
 *       "model": ["precise", "imprecise"],
 *       "cache": ["perfect", "lockup-free", "lockup"],
 *       "mshrs": [4, 0],
 *       "write_buffer": [8, 0],
 *       "write_buffer_drain": [4]
 *     }
 *   }
 *
 * Axis declaration order in the file is the nesting order (first axis
 * is the outermost loop), exactly like GridDef::axes.
 */

#ifndef DRSIM_EXP_SPEC_FILE_HH
#define DRSIM_EXP_SPEC_FILE_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/grid.hh"
#include "exp/registry.hh"

namespace drsim {
namespace exp {

/** One parsed sweep-spec document. */
struct SweepSpec
{
    std::string name;
    std::string description;
    /** Workload suite: "spec92" (default) or "classic". */
    std::string suite = "spec92";
    /** Write a `<name>_results.json` artifact after the run. */
    bool exportResults = false;

    /** One declared axis, in document order. */
    struct AxisDecl
    {
        std::string key;                  ///< e.g. "width", "model"
        std::vector<std::uint64_t> nums;  ///< numeric axes
        std::vector<std::string> strs;    ///< model/cache axes
    };
    std::vector<AxisDecl> axes;
};

/** Parse a sweep-spec document; fatal() on malformed input. */
SweepSpec parseSweepSpec(const std::string &text);

/** Write @p spec as one JSON object at @p w's current position; the
 *  pretty spec-file form and the compact wire form share it. */
void writeSweepSpec(json::Writer &w, const SweepSpec &spec);

/** Serialize @p spec to its canonical pretty spec-file form. */
std::string sweepSpecJson(const SweepSpec &spec);

/** Lower a parsed spec to the registry's grid form; fatal() on an
 *  unknown axis key or value. */
GridDef toGrid(const SweepSpec &spec);

/**
 * The run-time experiment a parsed spec describes, for the one
 * driver (runExperiment) and the daemon alike: banner "sweep spec:
 * <name>", the grid from toGrid() (lowered now, so a bad axis fails
 * here), the spec's suite, a printer that writes the description
 * line, the generic summary and the stall breakdown, and the spec's
 * export flag.  fatal() on an unknown axis key or value.
 */
ExperimentDef specExperiment(const SweepSpec &spec);

} // namespace exp
} // namespace drsim

#endif // DRSIM_EXP_SPEC_FILE_HH
