#include "core/config_check.hh"

#include <sstream>

#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "isa/reg.hh"

namespace drsim {

namespace {

/** Set *@p why to @p parts unless @p why is null, and hold, so a rule
 *  reads `broken && because(why, ...)` and formats only when asked. */
bool
because(std::string *why, const auto &...parts)
{
    if (why != nullptr)
        *why = detail::format(parts...);
    return true;
}

/** The derived per-class limits divide by issue-width factors, so
 *  their rules hold only for a supported width. */
bool
saneWidth(const CoreConfig &c)
{
    return c.issueWidth == 2 || c.issueWidth == 4 || c.issueWidth == 8;
}

bool
badGeometry(std::string *why, const char *name, const CacheConfig &cc)
{
    const char *error = cc.geometryError();
    return error != nullptr &&
           because(why, name, " cache of ", cc.sizeBytes, " B, ",
                   cc.assoc, "-way, ", cc.lineBytes, " B lines: ",
                   error);
}

using Why = std::string *;

/** Table order is the line order of every rejection message. */
constexpr ConfigRule kRules[] = {
    {"issue-width", true, [](const CoreConfig &c, Why why) {
         return !saneWidth(c) &&
                because(why, "issue width must be 2, 4 or 8 (got ",
                        c.issueWidth, ")");
     }},
    {"window-lt-issue-width", true, [](const CoreConfig &c, Why why) {
         return saneWidth(c) && c.dqSize < c.issueWidth &&
                because(why, "dispatch window of ", c.dqSize,
                        " entries cannot feed an issue width of ",
                        c.issueWidth,
                        ": a full issue group never fits");
     }},
    {"split-queue-starved", true, [](const CoreConfig &c, Why why) {
         return saneWidth(c) && c.splitDispatchQueues &&
                c.memQueueSize() < 1 &&
                because(why, "split dispatch queues divide dqSize 2:1:1; ",
                        c.dqSize, " entries starve the memory queue");
     }},
    // Every per-class limit must stay >= 1 at narrow widths (the
    // derived getters floor the width/4 classes); a zero limit
    // silently deadlocks the first instruction of that class.
    {"issue-class-starved", true, [](const CoreConfig &c, Why why) {
         return saneWidth(c) &&
                (c.fpDivIssueLimit() < 1 || c.ctrlIssueLimit() < 1 ||
                 c.fpIssueLimit() < 1 || c.memIssueLimit() < 1 ||
                 c.numFpDividers() < 1) &&
                because(why, "issue width ", c.issueWidth,
                        " derives a zero per-class issue limit: that "
                        "instruction class could never issue");
     }},
    {"unknown-predictor", true, [](const CoreConfig &c, Why why) {
         return !knownPredictor(c.predictor) &&
                because(why, "unknown branch predictor '", c.predictor,
                        "' (known: ", predictorSpecList(), ")");
     }},
    {"negative-result-buses", true, [](const CoreConfig &c, Why why) {
         return c.resultBuses < 0 &&
                because(why, "result buses must be >= 0 (got ",
                        c.resultBuses, "; 0 = unlimited)");
     }},
    {"result-buses-lt-half-width", false, [](const CoreConfig &c, Why why) {
         return c.resultBuses > 0 && c.resultBuses < c.issueWidth / 2 &&
                because(why, c.resultBuses, " result bus",
                        c.resultBuses == 1 ? "" : "es",
                        " under an issue width of ", c.issueWidth,
                        " will serialize writeback; expect heavy "
                        "result_bus stalls");
     }},
    {"phys-regs-lt-virtual", true, [](const CoreConfig &c, Why why) {
         return c.numPhysRegs < kNumVirtualRegs &&
                because(why, c.numPhysRegs,
                        " physical registers cannot map ",
                        kNumVirtualRegs,
                        " architectural ones: rename deadlocks (paper "
                        "Section 3.1)");
     }},
    {"sampling-zero-window", true, [](const CoreConfig &c, Why why) {
         return c.sampling.enabled() && c.sampling.window == 0 &&
                because(why, "sampling enabled with a zero-length "
                             "measured window: no IPC samples would "
                             "ever be taken");
     }},
    {"sampling-warmup-ge-interval", true, [](const CoreConfig &c, Why why) {
         const SamplingConfig &s = c.sampling;
         return s.enabled() && s.warmup >= s.interval &&
                because(why, "sampling warmup (", s.warmup,
                        ") must be shorter than the interval (",
                        s.interval, ")");
     }},
    {"sampling-no-fast-forward", true, [](const CoreConfig &c, Why why) {
         const SamplingConfig &s = c.sampling;
         return s.enabled() && s.warmup < s.interval &&
                !s.leavesFastForward() &&
                because(why, "sampling interval (", s.interval,
                        ") must exceed warmup + window (", s.warmup,
                        " + ", s.window,
                        "): nothing would be fast-forwarded");
     }},
    {"dcache-geometry", true, [](const CoreConfig &c, Why why) {
         return badGeometry(why, "data", c.dcache);
     }},
    {"icache-geometry", true, [](const CoreConfig &c, Why why) {
         return badGeometry(why, "instruction", c.icache);
     }},
    {"sampling-budget-lt-interval", false, [](const CoreConfig &c, Why why) {
         return c.maxCommitted != 0 && c.sampling.enabled() &&
                c.maxCommitted < c.sampling.interval &&
                because(why, "instruction budget ", c.maxCommitted,
                        " is below one sampling interval (",
                        c.sampling.interval,
                        "); the run degenerates to full detail");
     }},
};

/** fatal() with @p what, the error count and one line per error. */
[[noreturn]] void
rejectInfeasible(const std::vector<ConfigFinding> &findings,
                 const auto &...what)
{
    std::ostringstream errors;
    int nerrors = 0;
    for (const ConfigFinding &f : findings) {
        if (f.error) {
            ++nerrors;
            errors << "\n  [" << f.rule << "] " << f.message;
        }
    }
    fatal(what..., " (", nerrors, nerrors == 1 ? " error" : " errors",
          "):", errors.str());
}

} // namespace

std::span<const ConfigRule>
configRules()
{
    return kRules;
}

std::vector<ConfigFinding>
checkCoreConfig(const CoreConfig &cfg)
{
    std::vector<ConfigFinding> out;
    for (const ConfigRule &r : kRules) {
        std::string why;
        if (r.broken(cfg, &why))
            out.push_back({r.id, std::move(why), r.error});
    }
    return out;
}

void
CoreConfig::validate() const
{
    for (const ConfigRule &r : kRules) {
        if (r.error && r.broken(*this, nullptr))
            rejectInfeasible(checkCoreConfig(*this),
                             "infeasible configuration");
    }
}

void
requireFeasibleConfig(const CoreConfig &cfg,
                      const std::string &context)
{
    const std::vector<ConfigFinding> findings = checkCoreConfig(cfg);
    bool infeasible = false;
    for (const ConfigFinding &f : findings) {
        if (f.error)
            infeasible = true;
        else
            warn(context, ": [", f.rule, "] ", f.message);
    }
    if (infeasible) {
        rejectInfeasible(findings, "infeasible configuration for '",
                         context, "'");
    }
}

void
requireFeasibleSampling(const SamplingConfig &sampling,
                        const std::string &what)
{
    // The default machine breaks no rule and has no budget, so only
    // the sampling rules can fire here.
    CoreConfig cfg;
    cfg.sampling = sampling;
    const std::vector<ConfigFinding> findings = checkCoreConfig(cfg);
    for (const ConfigFinding &f : findings) {
        if (f.error)
            rejectInfeasible(findings, "infeasible ", what);
    }
}

} // namespace drsim
