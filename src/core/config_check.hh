/**
 * @file
 * The feasibility rules of a CoreConfig, written once as a table that
 * every screen reads.  checkCoreConfig() collects every finding, so a
 * spec author sees the full list at once.  requireFeasibleConfig()
 * screens at spec-parse time (`drsim run`, `drsim bench` expansion,
 * `drsim serve` requests) and also warns; requireFeasibleSampling()
 * screens a `--sample` spec or a request's sampling member alone.
 * CoreConfig::validate() rejects at Processor construction without
 * warning, as a sampled run builds one Processor per window, and
 * allocates nothing on a feasible config.  Every rejection lists
 * every error with its rule id.
 */

#ifndef DRSIM_CORE_CONFIG_CHECK_HH
#define DRSIM_CORE_CONFIG_CHECK_HH

#include <span>
#include <string>
#include <vector>

#include "core/config.hh"

namespace drsim {

/** One feasibility finding; `error` configs cannot run. */
struct ConfigFinding
{
    /** Stable kebab-case rule id, e.g. "window-lt-issue-width". */
    const char *rule = "";
    std::string message;
    bool error = true;
};

/** One rule of the table. */
struct ConfigRule
{
    /** Stable kebab-case id, e.g. "window-lt-issue-width". */
    const char *id;
    /** An error makes a config infeasible; a warning does not. */
    bool error;
    /** True when the config breaks the rule; then the reason goes to
     *  *why unless why is null. */
    bool (*broken)(const CoreConfig &, std::string *why);
};

/** Every rule, in reporting order. */
std::span<const ConfigRule> configRules();

/** The finding of every rule @p cfg violates, in table order. */
std::vector<ConfigFinding> checkCoreConfig(const CoreConfig &cfg);

/**
 * fatal() (listing every error finding) when @p cfg is infeasible;
 * @p context names the spec/experiment for the message.  Warnings
 * are reported via warn() and do not block.
 */
void requireFeasibleConfig(const CoreConfig &cfg,
                           const std::string &context);

/**
 * fatal() with the finding of every sampling rule @p sampling breaks,
 * as requireFeasibleConfig() words them; @p what names it ("sampling
 * spec '1000:0:10'").  For screening sampling parameters before any
 * machine configuration carries them.
 */
void requireFeasibleSampling(const SamplingConfig &sampling,
                             const std::string &what);

} // namespace drsim

#endif // DRSIM_CORE_CONFIG_CHECK_HH
