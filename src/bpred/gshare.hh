/**
 * @file
 * Gshare branch predictor (McFarling 1993, TN-36): a single 2-bit
 * counter table indexed by the branch PC XORed with the global
 * history register.
 *
 * 8 Kbit budget: 4096 x 2-bit counters, 12 bits of global history.
 * The pure-global half of the paper's combined predictor, scaled up
 * and without the bimodal fallback — so ext_predictors can separate
 * "global history helps" from "the selector helps".  Follows the
 * paper's pipeline discipline: speculative history update at insert,
 * execution-order counter training, history repair on mispredict.
 */

#ifndef DRSIM_BPRED_GSHARE_HH
#define DRSIM_BPRED_GSHARE_HH

#include <array>
#include <cstdint>

#include "bpred/predictor.hh"
#include "common/types.hh"

namespace drsim {

class GsharePredictor final : public BranchPredictor
{
  public:
    static constexpr int kTableBits = 12;
    static constexpr int kTableSize = 1 << kTableBits;        // 4096
    static constexpr std::uint32_t kHistoryMask = kTableSize - 1;

    GsharePredictor();

    const char *name() const override { return "gshare"; }

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
    index(Addr pc, std::uint32_t history)
    {
        return (std::uint32_t(pc >> 2) ^ history) & (kTableSize - 1);
    }

    std::array<std::uint8_t, kTableSize> table_;
    std::uint32_t history_ = 0;
};

} // namespace drsim

#endif // DRSIM_BPRED_GSHARE_HH
