#include "bpred/tage.hh"

#include "common/logging.hh"

namespace drsim {

TagePredictor::TagePredictor()
{
    // Weakly not-taken base; tagged banks empty (u == 0, weak ctr).
    base_.fill(1);
    for (auto &bank : banks_)
        bank.fill({3, 0, 0});
}

std::uint32_t
TagePredictor::fold(std::uint64_t h, int len, int bits)
{
    h &= (len >= 64) ? ~std::uint64_t(0)
                     : ((std::uint64_t(1) << len) - 1);
    const std::uint32_t mask = (std::uint32_t(1) << bits) - 1;
    std::uint32_t folded = 0;
    for (int i = 0; i < len; i += bits)
        folded ^= std::uint32_t(h >> i) & mask;
    return folded;
}

std::uint32_t
TagePredictor::bankIndex(Addr pc, std::uint64_t history, int bank)
{
    const std::uint32_t a = std::uint32_t(pc >> 2);
    return (a ^ (a >> (kBankBits - bank)) ^
            fold(history, kHistLen[bank], kBankBits)) &
           (kBankSize - 1);
}

std::uint16_t
TagePredictor::bankTag(Addr pc, std::uint64_t history, int bank)
{
    const std::uint32_t a = std::uint32_t(pc >> 2);
    return std::uint16_t(
        (a ^ fold(history, kHistLen[bank], kTagBits) ^
         (fold(history, kHistLen[bank], kTagBits - 1) << 1)) &
        ((1u << kTagBits) - 1));
}

bool
TagePredictor::predict(Addr pc) const
{
    for (int b = kNumBanks - 1; b >= 0; --b) {
        const Entry &e = banks_[b][bankIndex(pc, history_, b)];
        if (e.tag == bankTag(pc, history_, b))
            return bpred::counterTaken<7>(e.ctr);
    }
    return bpred::counterTaken<3>(base_[baseIndex(pc)]);
}

void
TagePredictor::update(Addr pc, std::uint64_t history_used, bool taken)
{
    // Recompute the prediction chain against the history the original
    // prediction used (execution-order training: the speculative
    // history has moved on by the time the branch executes).
    int provider = -1;
    int alt = -1;
    std::uint32_t idx[kNumBanks];
    for (int b = kNumBanks - 1; b >= 0; --b) {
        idx[b] = bankIndex(pc, history_used, b);
        if (banks_[b][idx[b]].tag != bankTag(pc, history_used, b))
            continue;
        if (provider < 0)
            provider = b;
        else if (alt < 0)
            alt = b;
    }

    const bool base_pred = bpred::counterTaken<3>(base_[baseIndex(pc)]);
    const auto ctr_taken = [&](int b) {
        return bpred::counterTaken<7>(banks_[b][idx[b]].ctr);
    };
    const bool alt_pred = alt >= 0 ? ctr_taken(alt) : base_pred;
    const bool tage_pred = provider >= 0 ? ctr_taken(provider) : base_pred;

    if (provider >= 0) {
        Entry &e = banks_[provider][idx[provider]];
        // Usefulness tracks "provider beat the alternate".
        if (tage_pred != alt_pred)
            bpred::bump<3>(e.u, tage_pred == taken);
        bpred::bump<7>(e.ctr, taken);
    } else {
        bpred::bump<3>(base_[baseIndex(pc)], taken);
    }

    // A mispredict allocates one longer-history entry: the lowest
    // bank above the provider whose slot is not useful.  When every
    // candidate is useful, age them instead (the reference design's
    // anti-ping-pong rule).
    if (tage_pred != taken && provider < kNumBanks - 1) {
        int victim = -1;
        for (int b = provider + 1; b < kNumBanks; ++b) {
            if (banks_[b][idx[b]].u == 0) {
                victim = b;
                break;
            }
        }
        if (victim >= 0) {
            Entry &e = banks_[victim][idx[victim]];
            e.tag = bankTag(pc, history_used, victim);
            e.ctr = taken ? 4 : 3; // weak, in the observed direction
            e.u = 0;
        } else {
            for (int b = provider + 1; b < kNumBanks; ++b)
                --banks_[b][idx[b]].u;
        }
    }

    if (++tick_ >= kUsefulHalfLife) {
        tick_ = 0;
        for (auto &bank : banks_) {
            for (Entry &e : bank)
                e.u >>= 1;
        }
    }
}

std::vector<std::uint8_t>
TagePredictor::saveState() const
{
    std::vector<std::uint8_t> out;
    out.reserve(kBaseSize + std::size_t(kNumBanks) * kBankSize * 4 +
                16);
    for (const std::uint8_t c : base_)
        out.push_back(c);
    for (const auto &bank : banks_) {
        for (const Entry &e : bank) {
            out.push_back(e.ctr);
            out.push_back(e.u);
            out.push_back(std::uint8_t(e.tag));
            out.push_back(std::uint8_t(e.tag >> 8));
        }
    }
    bpred::putU64(out, history_);
    bpred::putU64(out, tick_);
    return out;
}

void
TagePredictor::restoreState(const std::vector<std::uint8_t> &bytes)
{
    const std::size_t expect =
        kBaseSize + std::size_t(kNumBanks) * kBankSize * 4 + 16;
    if (bytes.size() != expect) {
        fatal("tage predictor state: ", bytes.size(),
              " bytes, expected ", expect);
    }
    std::size_t at = 0;
    for (std::uint8_t &c : base_)
        c = bytes[at++];
    for (auto &bank : banks_) {
        for (Entry &e : bank) {
            e.ctr = bytes[at++];
            e.u = bytes[at++];
            e.tag = std::uint16_t(bytes[at] |
                                  (std::uint16_t(bytes[at + 1]) << 8));
            at += 2;
        }
    }
    history_ = bpred::getU64(bytes, at);
    tick_ = bpred::getU64(bytes, at + 8);
}

} // namespace drsim
