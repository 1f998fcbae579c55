/**
 * @file
 * Static feasibility screening for CoreConfig, run at spec-parse time
 * (`drsim bench` sweep expansion, `drsim serve` request handling) so an
 * infeasible point rejects the whole sweep up front instead of
 * fatal()ing mid-run after hours of simulation.
 *
 * Unlike CoreConfig::validate() — which throws on the *first* problem
 * when a Processor is built — these checks collect every finding, so
 * a spec author sees the full list at once.  validate() remains the
 * last-line defense: everything it rejects about the core is also an
 * error here, but cache geometry (CacheConfig::validate()) is checked
 * only when a Processor is built.
 */

#ifndef DRSIM_CORE_CONFIG_CHECK_HH
#define DRSIM_CORE_CONFIG_CHECK_HH

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

/**
 * All feasibility findings for @p cfg: issue width not 2/4/8, dispatch
 * window smaller than the issue width, too few physical registers,
 * split queues with a starved class, inconsistent sampling lengths
 * (warmup >= interval, zero window, no fast-forward left), and a
 * zero-latency non-load opcode in the latency table.
 */
std::vector<ConfigFinding> checkCoreConfig(const CoreConfig &cfg);

/**
 * Register-file port feasibility (the paper's 2 read + 1 write port
 * per issue slot geometry): an @p issue_width machine needs
 * 2*issue_width read ports and issue_width write ports unless a port
 * sharing/stall scheme is modeled.  Pure arithmetic — CoreConfig has
 * no port fields; the timing co-design layer (src/timing) sweeps
 * geometries and screens them through this.
 */
std::vector<ConfigFinding> checkRegFilePorts(int read_ports,
                                             int write_ports,
                                             int issue_width,
                                             bool port_sharing);

/**
 * fatal() (listing every error finding) when @p cfg is infeasible;
 * @p context names the spec/experiment for the message.  Warnings
 * are reported via warn() and do not block.
 */
void requireFeasibleConfig(const CoreConfig &cfg,
                           const std::string &context);

} // namespace drsim

#endif // DRSIM_CORE_CONFIG_CHECK_HH
