/**
 * @file
 * TAGE branch predictor (Seznec & Michaud 2006, "A case for
 * (partially) TAgged GEometric history length branch prediction"),
 * sized down to drsim's scale and made fully deterministic.
 *
 * Structure: a 4096 x 2-bit bimodal base predictor plus four
 * partially-tagged banks (1024 entries each) indexed by the branch PC
 * hashed with geometrically increasing global-history lengths
 * {5, 10, 20, 40}.  Each tagged entry holds a 3-bit signed prediction
 * counter, a 9-bit partial tag, and a 2-bit usefulness counter.  The
 * prediction comes from the matching bank with the longest history
 * (the provider); the next-longest match (or the base table) is the
 * alternate prediction used to train usefulness.
 *
 * Departures from the reference implementation, chosen for drsim's
 * reproducibility contract:
 *  - allocation on a mispredict claims the single lowest u == 0 entry
 *    above the provider (no randomized bank choice), decrementing the
 *    candidates' u counters when none is free — deterministic, so
 *    every run of a configuration is bit-identical;
 *  - the global history register is a plain 64-bit shift register
 *    (ample for the 40-bit longest table), which is exactly the
 *    opaque history() token the processor checkpoints per branch —
 *    update() and repairHistory() recompute every index and tag from
 *    (pc, token), so execution-order training and post-mispredict
 *    repair need no extra stored state;
 *  - usefulness counters are halved on a fixed 256k-update period
 *    (a deterministic stand-in for the alternating-bit reset).
 */

#ifndef DRSIM_BPRED_TAGE_HH
#define DRSIM_BPRED_TAGE_HH

#include <array>
#include <cstdint>

#include "bpred/predictor.hh"
#include "common/types.hh"

namespace drsim {

class TagePredictor final : public BranchPredictor
{
  public:
    static constexpr int kNumBanks = 4;
    static constexpr int kBaseBits = 12;
    static constexpr int kBaseSize = 1 << kBaseBits;          // 4096
    static constexpr int kBankBits = 10;
    static constexpr int kBankSize = 1 << kBankBits;          // 1024
    static constexpr int kTagBits = 9;
    /** Geometric history lengths, shortest first. */
    static constexpr int kHistLen[kNumBanks] = {5, 10, 20, 40};
    /** Usefulness counters halve every this many update() calls. */
    static constexpr std::uint64_t kUsefulHalfLife = 256 * 1024;

    TagePredictor();

    const char *name() const override { return "tage"; }

    std::uint64_t history() const override { return history_; }

    bool predict(Addr pc) const override;

    void update(Addr pc, std::uint64_t history_used,
                bool taken) override;

    void
    shiftHistory(bool taken) override
    {
        history_ = (history_ << 1) | std::uint64_t(taken);
    }

    void setHistory(std::uint64_t token) override { history_ = token; }

    std::vector<std::uint8_t> saveState() const override;
    void restoreState(const std::vector<std::uint8_t> &bytes) override;

  private:
    struct Entry
    {
        std::uint8_t ctr;  ///< 3-bit prediction counter, taken >= 4
        std::uint8_t u;    ///< 2-bit usefulness
        std::uint16_t tag; ///< kTagBits partial tag
    };

    /** XOR-fold the low @p len history bits down to @p bits bits. */
    static std::uint32_t fold(std::uint64_t h, int len, int bits);

    static std::uint32_t bankIndex(Addr pc, std::uint64_t history,
                                   int bank);
    static std::uint16_t bankTag(Addr pc, std::uint64_t history,
                                 int bank);

    std::uint32_t
    baseIndex(Addr pc) const
    {
        return std::uint32_t(pc >> 2) & (kBaseSize - 1);
    }

    std::array<std::uint8_t, kBaseSize> base_;
    std::array<std::array<Entry, kBankSize>, kNumBanks> banks_;
    std::uint64_t history_ = 0;
    /** update() calls since the last usefulness halving. */
    std::uint64_t tick_ = 0;
};

} // namespace drsim

#endif // DRSIM_BPRED_TAGE_HH
