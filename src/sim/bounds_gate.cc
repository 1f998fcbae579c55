/**
 * @file
 * Runtime cross-check gates against the static dataflow oracle
 * (DESIGN.md §5i).  After a full-detail run, two invariants relate
 * the simulation to analysis::computeBounds():
 *
 *   1. commit IPC <= static IPC upper bound (+ tolerance) — the
 *      machine cannot beat its own dataflow/resource limits;
 *   2. peak live physical registers >= static MaxLive — the dynamic
 *      live accounting cannot undercount what the program provably
 *      keeps live.
 *
 * Both static bounds err on the permissive side (see bounds.hh), so
 * a violation is always a simulator bug — scheduling that commits
 * instructions it never issued, or live accounting that drops
 * mappings.  Violations DRSIM_PANIC in debug/test builds and warn in
 * release; DRSIM_BOUNDS_GATE=off|warn|panic overrides.
 */

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "analysis/bounds.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"

namespace drsim {

BoundsGateMode
boundsGateMode()
{
    const char *env = std::getenv("DRSIM_BOUNDS_GATE");
    if (env != nullptr && env[0] != '\0') {
        if (std::strcmp(env, "off") == 0)
            return BoundsGateMode::Off;
        if (std::strcmp(env, "warn") == 0)
            return BoundsGateMode::Warn;
        if (std::strcmp(env, "panic") == 0)
            return BoundsGateMode::Panic;
        warn("DRSIM_BOUNDS_GATE='", env,
             "' is not off|warn|panic; using the build default");
    }
#ifdef NDEBUG
    return BoundsGateMode::Warn;
#else
    return BoundsGateMode::Panic;
#endif
}

void
checkStaticBounds(const CoreConfig &config, const Program &program,
                  const SimResult &result)
{
    const BoundsGateMode mode = boundsGateMode();
    if (mode == BoundsGateMode::Off)
        return;
    // Sampled runs splice functional fast-forwards into the timeline;
    // neither gate's invariant holds over such a composite.  A run
    // that never committed has no meaningful IPC either.
    if (result.sampled.enabled || result.proc.cycles == 0)
        return;

    analysis::MachineLimits limits;
    limits.issueWidth = config.issueWidth;
    limits.intIssue = config.intIssueLimit();
    limits.fpIssue = config.fpIssueLimit();
    limits.fpDivIssue = config.fpDivIssueLimit();
    limits.memIssue = config.memIssueLimit();
    limits.ctrlIssue = config.ctrlIssueLimit();
    limits.fpDividers = config.numFpDividers();

    const analysis::BoundsReport bounds =
        analysis::computeBounds(program, limits);
    if (!bounds.valid)
        return;

    std::ostringstream os;

    // Gate 1: simulated IPC cannot exceed the static upper bound.
    // The tolerance absorbs end effects (partial first/last cycles)
    // on top of a bound that is already conservative.
    const double ipc = result.commitIpc();
    const double limit = bounds.ipcBound * 1.05 + 0.05;
    if (ipc > limit) {
        os << "commit IPC " << ipc << " exceeds the static bound "
           << bounds.ipcBound << " (+5% tolerance = " << limit << ")";
    }

    // Gate 2: dynamic peak live registers cannot undercut static
    // MaxLive.  Only meaningful when at least one cycle was sampled.
    for (int c = 0; c < kNumRegClasses; ++c) {
        const auto &hist = result.proc.live[c][3];
        if (hist.totalSamples() == 0)
            continue;
        if (hist.maxValue() < std::uint64_t(bounds.maxLive[c])) {
            if (os.tellp() > 0)
                os << "; ";
            os << (c == 0 ? "int" : "fp") << " peak live registers "
               << hist.maxValue() << " below static MaxLive "
               << bounds.maxLive[c];
        }
    }

    if (os.tellp() == 0)
        return;
    if (mode == BoundsGateMode::Panic) {
        DRSIM_PANIC("static-bounds gate violated for '",
                    result.workload, "': ", os.str());
    }
    warn("static-bounds gate violated for '", result.workload,
         "': ", os.str());
}

} // namespace drsim
