/**
 * @file
 * McFarling combined branch predictor (paper Section 2.1).
 *
 * 12 Kbit budget: 2048 x 2-bit bimodal counters, 2048 x 2-bit
 * global-history (gshare) counters, and 2048 x 2-bit selector
 * counters.  The global-history shift register is updated
 * *speculatively* with the predicted direction when a branch is
 * inserted into the dispatch queue; on a misprediction it is repaired
 * to the value it held before that branch was inserted (with the
 * branch's actual direction shifted in).  The 2-bit counters are
 * updated when the branch issues (executes), i.e. in execution order —
 * both quirks are called out in the paper as sources of its elevated
 * misprediction rates relative to McFarling's original report.
 */

#ifndef DRSIM_BPRED_MCFARLING_HH
#define DRSIM_BPRED_MCFARLING_HH

#include <array>
#include <cstdint>

#include "bpred/predictor.hh"
#include "common/types.hh"

namespace drsim {

class CombinedPredictor final : public BranchPredictor
{
  public:
    static constexpr int kTableBits = 11;
    static constexpr int kTableSize = 1 << kTableBits;        // 2048
    static constexpr std::uint32_t kHistoryMask = kTableSize - 1;

    CombinedPredictor();

    const char *name() const override { return "mcfarling"; }

    /** The global-history register value (for checkpoint/repair). */
    std::uint64_t history() const override { return history_; }

    bool predict(Addr pc) const override;

    void update(Addr pc, std::uint64_t history_used,
                bool taken) override;

    void
    shiftHistory(bool taken) override
    {
        history_ = ((history_ << 1) | std::uint32_t(taken)) &
                   kHistoryMask;
    }

    void
    setHistory(std::uint64_t token) override
    {
        history_ = std::uint32_t(token) & kHistoryMask;
    }

    std::vector<std::uint8_t> saveState() const override;
    void restoreState(const std::vector<std::uint8_t> &bytes) override;

  private:
    static std::uint32_t
    pcIndex(Addr pc)
    {
        // Word-address indexing, as in the paper.
        return std::uint32_t(pc >> 2) & (kTableSize - 1);
    }

    static std::uint32_t
    gshareIndex(Addr pc, std::uint32_t history)
    {
        return (std::uint32_t(pc >> 2) ^ history) & (kTableSize - 1);
    }

    /** The bimodal and selector tables are both indexed by pcIndex();
     *  interleaving them puts the two counters a prediction and an
     *  update both touch in the same cache line. */
    struct PcEntry
    {
        std::uint8_t bimodal;
        std::uint8_t selector;
    };

    std::array<PcEntry, kTableSize> pcTable_;
    std::array<std::uint8_t, kTableSize> global_;
    std::uint32_t history_ = 0;
};

} // namespace drsim

#endif // DRSIM_BPRED_MCFARLING_HH
