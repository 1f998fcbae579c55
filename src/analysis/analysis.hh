/**
 * @file
 * Static verifier and linter for drsim guest programs.
 *
 * The paper's evaluation stands or falls with the nine synthetic
 * kernels faithfully matching their SPEC92 Table-1 signatures; a
 * malformed kernel (uninitialized register read, branch into a dead
 * block, out-of-bounds data access, drifted instruction mix) otherwise
 * surfaces only as a silently skewed IPC deep inside a sweep.  This
 * subsystem analyzes the static `Program` CFG *before* any cycle is
 * simulated and reports findings with a stable rule id, a severity,
 * and an exact code location.
 *
 * Pass order (each pass feeds the next):
 *   1. CFG construction + structural checks (dangling branch targets,
 *      falling off the end of the code segment, empty programs);
 *   2. reachability (unreachable blocks; reachable blocks that can
 *      never reach Halt, i.e. statically guaranteed infinite loops);
 *   3. forward definite-assignment dataflow per register class
 *      (reads of never-written registers) and backward liveness
 *      (dead writes);
 *   4. value-range (interval) analysis over the integer registers,
 *      used to bound every statically resolvable load/store effective
 *      address against the program's data image;
 *   5. local lints (writes to the hardwired zero register, branches
 *      that target themselves);
 *   6. loop-aware static instruction-mix estimation, cross-checked
 *      against the kernel's registered Table-1 target mix.
 *
 * Severity model:
 *   Error   — the program is wrong or would silently skew results;
 *             `verifyProgram()` (src/sim) refuses to simulate it.
 *   Warning — suspicious but defined behaviour (the drsim ABI
 *             zero-fills all registers and the emulator aligns every
 *             access), worth a human look.
 *
 * Consumers: `verifyProgram()` in src/sim (fail-fast before every
 * simulation), the `drsim lint` verb (tools/), and tests.
 */

#ifndef DRSIM_ANALYSIS_ANALYSIS_HH
#define DRSIM_ANALYSIS_ANALYSIS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hh"
#include "isa/reg.hh"
#include "workloads/program.hh"

namespace drsim {
namespace analysis {

enum class Severity : std::uint8_t { Warning = 0, Error = 1 };

/** Stable machine-readable name ("warning" / "error"). */
const char *severityName(Severity sev);

/** Stable rule identifiers (also the `rule` field of JSON output). */
namespace rules {
inline constexpr const char *kEmptyProgram = "cfg-empty";
inline constexpr const char *kInvalidTarget = "cfg-invalid-target";
inline constexpr const char *kFallOffEnd = "cfg-fall-off-end";
inline constexpr const char *kUnreachable = "cfg-unreachable";
inline constexpr const char *kNoHalt = "cfg-no-halt";
inline constexpr const char *kUninitRead = "dataflow-uninit-read";
inline constexpr const char *kDeadWrite = "dataflow-dead-write";
inline constexpr const char *kZeroRegWrite = "lint-zero-reg-write";
inline constexpr const char *kSelfBranch = "lint-self-branch";
inline constexpr const char *kOobAccess = "mem-oob-access";
inline constexpr const char *kMisaligned = "mem-misaligned";
inline constexpr const char *kMixDrift = "mix-drift";
} // namespace rules

/** One diagnostic: rule id, severity, and an exact code location. */
struct Finding
{
    std::string rule;
    Severity severity = Severity::Warning;
    /** Basic-block index; -1 for whole-program findings. */
    std::int32_t block = -1;
    /** Instruction offset within the block; -1 when not applicable. */
    std::int32_t offset = -1;
    /** PC of the offending instruction (0 when not applicable). */
    Addr pc = 0;
    std::string message;
};

/** Tuning knobs for a verification run. */
struct Options
{
    /**
     * Registers the surrounding harness guarantees to initialize
     * before entry (beyond r31/f31, which are hardwired zero).  Reads
     * of these are never flagged as uninitialized.  The drsim ABI
     * itself declares none — the loader zero-fills every register,
     * but a kernel *reading* that zero is almost always a bug.
     */
    std::vector<RegId> abiInitializedRegs;

    /** Apply the instruction-mix rule when a target is registered. */
    bool checkMix = true;

    /** Absolute tolerance (percentage points) for each mix category. */
    double mixTolerancePct = 3.0;
};

/** The result of analyzing one program. */
struct Report
{
    std::string program;
    /** Sorted by (block, offset, rule) for deterministic output. */
    std::vector<Finding> findings;

    std::size_t count(Severity sev) const;
    std::size_t errorCount() const { return count(Severity::Error); }
    bool hasErrors() const { return errorCount() > 0; }

    /** "2 errors, 1 warning" (for log lines and fatal messages). */
    std::string summary() const;
};

/** Run every pass over @p program and collect findings. */
Report analyzeProgram(const Program &program, const Options &opts = {});

/**
 * Render one finding as a human-readable single line:
 * "error[mem-oob-access] block 3 inst 2 (pc 0x1058): ..."
 */
std::string formatFinding(const Finding &finding);

/**
 * Serialize a report as a strict-JSON object (schema documented in
 * tools/lint_verb.cc and docs/RESULTS_SCHEMA.md); round-trips through
 * json::parse().
 */
std::string reportToJson(const Report &report);

/** reportToJson() as one object at @p w's current position. */
void writeReport(json::Writer &w, const Report &report);

/**
 * Loop-aware static instruction-mix estimate.  Block execution
 * weights come from a back-edge heuristic: a block nested in d
 * natural loops weighs 100^min(d,3), so loop bodies dominate the
 * estimate the way they dominate the dynamic stream.  Both arms of a
 * conditional count fully, so the estimate brackets — rather than
 * equals — the dynamic mix; targets are calibrated in this
 * estimator space (see mix.cc).
 */
struct MixEstimate
{
    double loadPct = 0.0;
    double storePct = 0.0;
    double condBranchPct = 0.0;
    double fpPct = 0.0;
    /** Total block-weighted instruction mass behind the estimate. */
    double totalWeight = 0.0;
};

MixEstimate estimateMix(const Program &program);

/** Registered estimator-space mix signature for one kernel. */
struct MixTarget
{
    double loadPct;
    double storePct;
    double condBranchPct;
    double fpPct;
};

/**
 * Target mix for a suite kernel by program name; nullptr when the
 * program has no registered signature (mix rule is skipped then).
 */
const MixTarget *mixTargetFor(const std::string &name);

} // namespace analysis
} // namespace drsim

#endif // DRSIM_ANALYSIS_ANALYSIS_HH
