#include "bpred/gshare.hh"

#include "common/logging.hh"

namespace drsim {

GsharePredictor::GsharePredictor()
{
    // Weakly not-taken, matching the paper predictor's reset state.
    table_.fill(1);
}

bool
GsharePredictor::predict(Addr pc) const
{
    return bpred::counterTaken<3>(table_[index(pc, history_)]);
}

void
GsharePredictor::update(Addr pc, std::uint64_t history_used,
                        bool taken)
{
    const std::uint32_t h = std::uint32_t(history_used) & kHistoryMask;
    bpred::bump<3>(table_[index(pc, h)], taken);
}

std::vector<std::uint8_t>
GsharePredictor::saveState() const
{
    std::vector<std::uint8_t> out(table_.begin(), table_.end());
    bpred::putU64(out, history_);
    return out;
}

void
GsharePredictor::restoreState(const std::vector<std::uint8_t> &bytes)
{
    const std::size_t expect = table_.size() + 8;
    if (bytes.size() != expect) {
        fatal("gshare predictor state: ", bytes.size(),
              " bytes, expected ", expect);
    }
    std::copy(bytes.begin(), bytes.begin() + kTableSize,
              table_.begin());
    setHistory(bpred::getU64(bytes, kTableSize));
}

} // namespace drsim
