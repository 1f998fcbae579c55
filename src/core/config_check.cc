#include "core/config_check.hh"

#include <sstream>

#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"

namespace drsim {

namespace {

void
add(std::vector<ConfigFinding> &out, const char *rule, bool error,
    std::string message)
{
    out.push_back({rule, std::move(message), error});
}

std::string
str(auto... parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

} // namespace

std::vector<ConfigFinding>
checkCoreConfig(const CoreConfig &cfg)
{
    std::vector<ConfigFinding> out;

    if (cfg.issueWidth != 2 && cfg.issueWidth != 4 &&
        cfg.issueWidth != 8) {
        add(out, "issue-width", true,
            str("issue width must be 2, 4 or 8 (got ", cfg.issueWidth,
                ")"));
    } else {
        // The derived limits below divide by issueWidth factors, so
        // only evaluate them for a sane width.
        if (cfg.dqSize < cfg.issueWidth) {
            add(out, "window-lt-issue-width", true,
                str("dispatch window of ", cfg.dqSize,
                    " entries cannot feed an issue width of ",
                    cfg.issueWidth,
                    ": a full issue group never fits"));
        }
        if (cfg.splitDispatchQueues && cfg.memQueueSize() < 1) {
            add(out, "split-queue-starved", true,
                str("split dispatch queues divide dqSize 2:1:1; ",
                    cfg.dqSize, " entries starve the memory queue"));
        }
        // Every per-class limit must stay >= 1 at narrow widths (the
        // derived getters floor the width/4 classes); a zero limit
        // silently deadlocks the first instruction of that class.
        if (cfg.fpDivIssueLimit() < 1 || cfg.ctrlIssueLimit() < 1 ||
            cfg.fpIssueLimit() < 1 || cfg.memIssueLimit() < 1 ||
            cfg.numFpDividers() < 1) {
            add(out, "issue-class-starved", true,
                str("issue width ", cfg.issueWidth,
                    " derives a zero per-class issue limit: that "
                    "instruction class could never issue"));
        }
    }

    if (!knownPredictor(cfg.predictor)) {
        add(out, "unknown-predictor", true,
            str("unknown branch predictor '", cfg.predictor,
                "' (known: ", predictorSpecList(), ")"));
    }

    if (cfg.resultBuses < 0) {
        add(out, "negative-result-buses", true,
            str("result buses must be >= 0 (got ", cfg.resultBuses,
                "; 0 = unlimited)"));
    } else if (cfg.resultBuses > 0 &&
               cfg.resultBuses < cfg.issueWidth / 2) {
        add(out, "result-buses-lt-half-width", false,
            str(cfg.resultBuses, " result bus",
                cfg.resultBuses == 1 ? "" : "es",
                " under an issue width of ", cfg.issueWidth,
                " will serialize writeback; expect heavy "
                "result_bus stalls"));
    }

    if (cfg.numPhysRegs < kNumVirtualRegs) {
        add(out, "phys-regs-lt-virtual", true,
            str(cfg.numPhysRegs, " physical registers cannot map ",
                kNumVirtualRegs,
                " architectural ones: rename deadlocks (paper "
                "Section 3.1)"));
    }

    if (cfg.sampling.enabled()) {
        const SamplingConfig &sc = cfg.sampling;
        if (sc.window == 0) {
            add(out, "sampling-zero-window", true,
                "sampling enabled with a zero-length measured "
                "window: no IPC samples would ever be taken");
        }
        if (!sc.leavesFastForward()) {
            if (sc.warmup >= sc.interval) {
                add(out, "sampling-warmup-ge-interval", true,
                    str("sampling warmup (", sc.warmup,
                        ") must be shorter than the interval (",
                        sc.interval, ")"));
            } else {
                add(out, "sampling-no-fast-forward", true,
                    str("sampling interval (", sc.interval,
                        ") must exceed warmup + window (", sc.warmup,
                        " + ", sc.window,
                        "): nothing would be fast-forwarded"));
            }
        }
    }

    // Latency-table sanity: a non-load op with latency < 1 would let
    // the scheduler complete work in the cycle it issues, breaking
    // both the event ring and every static bound.  The table is
    // constexpr, so this can only fire after someone edits it — which
    // is exactly when it should.
    for (int i = 0; i < kNumOpcodes; ++i) {
        const OpTraits &t = detail::kOpTraits[std::size_t(i)];
        if (t.cls != OpClass::MemLoad && t.latency < 1) {
            add(out, "zero-latency-op", true,
                str("opcode '", t.name, "' has latency ", t.latency,
                    " but is not a load; non-load ops need >= 1 "
                    "cycle"));
        }
    }

    if (cfg.maxCommitted != 0 && cfg.sampling.enabled() &&
        cfg.maxCommitted < cfg.sampling.interval) {
        add(out, "sampling-budget-lt-interval", false,
            str("instruction budget ", cfg.maxCommitted,
                " is below one sampling interval (",
                cfg.sampling.interval,
                "); the run degenerates to full detail"));
    }

    return out;
}

std::vector<ConfigFinding>
checkRegFilePorts(int read_ports, int write_ports, int issue_width,
                  bool port_sharing)
{
    std::vector<ConfigFinding> out;
    if (port_sharing)
        return out; // a sharing/stall scheme models the contention
    if (read_ports < 2 * issue_width) {
        add(out, "read-ports-lt-demand", true,
            str(read_ports, " read ports cannot feed ", issue_width,
                " issue slots (2 operands each) without a port "
                "sharing scheme"));
    }
    if (write_ports < issue_width) {
        add(out, "write-ports-lt-demand", true,
            str(write_ports, " write ports cannot retire ",
                issue_width,
                " results per cycle without a port sharing scheme"));
    }
    return out;
}

void
requireFeasibleConfig(const CoreConfig &cfg,
                      const std::string &context)
{
    const std::vector<ConfigFinding> findings = checkCoreConfig(cfg);
    std::ostringstream errors;
    int nerrors = 0;
    for (const ConfigFinding &f : findings) {
        if (f.error) {
            ++nerrors;
            errors << "\n  [" << f.rule << "] " << f.message;
        } else {
            warn(context, ": [", f.rule, "] ", f.message);
        }
    }
    if (nerrors > 0) {
        fatal("infeasible configuration for '", context, "' (",
              nerrors, nerrors == 1 ? " error" : " errors",
              "):", errors.str());
    }
}

} // namespace drsim
