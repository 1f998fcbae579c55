/**
 * @file
 * Bimodal branch predictor (Smith 1981): one 2-bit saturating counter
 * per PC-indexed table entry, no global history.
 *
 * The simplest backend, and the floor every history-based predictor
 * is judged against in ext_predictors.  8 Kbit budget: 4096 x 2-bit
 * counters, word-address indexed.  history() is always 0 and the
 * history hooks are no-ops — the opaque-token contract makes that a
 * valid degenerate case (the processor's save/repair bookkeeping
 * round-trips zeros).
 */

#ifndef DRSIM_BPRED_BIMODAL_HH
#define DRSIM_BPRED_BIMODAL_HH

#include <array>
#include <cstdint>

#include "bpred/predictor.hh"
#include "common/types.hh"

namespace drsim {

class BimodalPredictor final : public BranchPredictor
{
  public:
    static constexpr int kTableBits = 12;
    static constexpr int kTableSize = 1 << kTableBits;        // 4096

    BimodalPredictor();

    const char *name() const override { return "bimodal"; }

    std::uint64_t history() const override { return 0; }

    bool predict(Addr pc) const override;

    void update(Addr pc, std::uint64_t history_used,
                bool taken) override;

    void shiftHistory(bool) override {}
    void setHistory(std::uint64_t) override {}

    std::vector<std::uint8_t> saveState() const override;
    void restoreState(const std::vector<std::uint8_t> &bytes) override;

  private:
    static std::uint32_t
    pcIndex(Addr pc)
    {
        return std::uint32_t(pc >> 2) & (kTableSize - 1);
    }

    std::array<std::uint8_t, kTableSize> table_;
};

} // namespace drsim

#endif // DRSIM_BPRED_BIMODAL_HH
