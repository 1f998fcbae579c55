/**
 * @file
 * The branch-predictor backend interface (DESIGN.md §5k).
 *
 * The processor model is predictor-agnostic: it talks to every backend
 * through this interface and never sees a concrete table layout.  The
 * contract mirrors the paper's pipeline discipline exactly:
 *
 *  - predictAndUpdateHistory() at dispatch-queue insert — predict the
 *    branch and *speculatively* shift the prediction into the global
 *    history (CoreConfig::speculativeHistoryUpdate, the default);
 *  - update() at branch issue/execute — train the tables, in execution
 *    order, against the history value the prediction was made with;
 *  - repairHistory() at misprediction recovery — reload the history
 *    with its pre-branch value plus the branch's actual direction;
 *  - shiftHistory() for the execute-time-history ablation (and the
 *    sampling path's functional warming, which replays the
 *    architectural branch stream as perfectly predicted).
 *
 * predictAndUpdateHistory() and repairHistory() are written once,
 * here, over the backend's predict(), shiftHistory() and setHistory().
 *
 * history() is an *opaque token*: the processor saves it per branch
 * (DynInst::historyBefore) and hands it back to update() and
 * repairHistory() verbatim.  Backends with no global history (bimodal)
 * return 0 and ignore it; backends with up to 64 bits of history
 * (gshare, mcfarling, tage) pack their shift register into it.  This
 * keeps the per-branch bookkeeping fixed-size across backends.
 *
 * saveState()/restoreState() serialize the complete predictor state
 * (tables + history) to a portable byte image, so the sampling path's
 * warm state can be checkpointed and every backend can be round-trip
 * tested (tests/test_bpred.cc).
 */

#ifndef DRSIM_BPRED_PREDICTOR_HH
#define DRSIM_BPRED_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace drsim {

class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** The factory spec this backend answers to, e.g. "mcfarling". */
    virtual const char *name() const = 0;

    /** Opaque global-history token (for checkpoint/repair).  Pass it
     *  back unchanged to update() and repairHistory(). */
    virtual std::uint64_t history() const = 0;

    /**
     * Predict the direction of the conditional branch at @p pc and
     * speculatively shift the prediction into the history register
     * (call at dispatch-queue insert).
     */
    bool
    predictAndUpdateHistory(Addr pc)
    {
        const bool taken = predict(pc);
        shiftHistory(taken);
        return taken;
    }

    /** Predict without touching any state (inspection/tests, and the
     *  execute-time-history ablation's insert-stage prediction). */
    virtual bool predict(Addr pc) const = 0;

    /**
     * Train the predictor with the branch's actual direction (call at
     * branch issue/execute).  @p history_used is the history() token
     * captured *before* this branch's own speculative update.
     */
    virtual void update(Addr pc, std::uint64_t history_used,
                        bool taken) = 0;

    /**
     * Repair after a misprediction: restore the history register to
     * @p history_before (the pre-branch token) with the branch's
     * actual direction shifted in.
     */
    void
    repairHistory(std::uint64_t history_before, bool taken)
    {
        setHistory(history_before);
        shiftHistory(taken);
    }

    /** Shift a resolved direction into the history register (the
     *  execute-time-history ablation and functional warming). */
    virtual void shiftHistory(bool taken) = 0;

    /** Load the history register from a history() @p token. */
    virtual void setHistory(std::uint64_t token) = 0;

    /// @name Checkpointing (sampling warm state, round-trip tests)
    /// @{
    /** Serialize the complete predictor state (tables + history). */
    virtual std::vector<std::uint8_t> saveState() const = 0;

    /** Restore a state saved by the same backend type; fatal() on a
     *  size mismatch (wrong backend or stale image). */
    virtual void restoreState(const std::vector<std::uint8_t> &bytes)
        = 0;
    /// @}
};

/** The factory spec strings, in presentation order ("mcfarling" is
 *  the paper's predictor and the CoreConfig default). */
const std::vector<std::string> &predictorSpecs();

/** True when @p spec names a registered backend. */
bool knownPredictor(const std::string &spec);

/** Comma-separated spec list for error messages. */
std::string predictorSpecList();

/**
 * Construct the backend named by @p spec ("mcfarling", "bimodal",
 * "gshare", "tage"); fatal() on an unknown spec — configurations are
 * validated by checkCoreConfig() before any Processor is built, so
 * reaching the factory with a bad spec is a programming error.
 */
std::unique_ptr<BranchPredictor>
makeBranchPredictor(const std::string &spec);

namespace bpred {

/// @name Saturating counters, the cells of every backend's tables
/// @{
/** A counter saturating at @p Max predicts taken in its upper half. */
template <std::uint8_t Max>
constexpr bool
counterTaken(std::uint8_t c)
{
    return c > Max / 2;
}

/** Step @p c up (taken, useful) or down, saturating at 0 and @p Max. */
template <std::uint8_t Max>
constexpr void
bump(std::uint8_t &c, bool up)
{
    if (up) {
        if (c < Max)
            ++c;
    } else if (c > 0) {
        --c;
    }
}
/// @}

/// @name Byte-image helpers shared by the backends' save/restore
/// @{
inline void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

inline std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(in[at + i]) << (8 * i);
    return v;
}
/// @}

} // namespace bpred
} // namespace drsim

#endif // DRSIM_BPRED_PREDICTOR_HH
