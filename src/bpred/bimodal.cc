#include "bpred/bimodal.hh"

#include "common/logging.hh"

namespace drsim {

BimodalPredictor::BimodalPredictor()
{
    // Weakly not-taken, matching the paper predictor's reset state.
    table_.fill(1);
}

bool
BimodalPredictor::predict(Addr pc) const
{
    return bpred::counterTaken<3>(table_[pcIndex(pc)]);
}

void
BimodalPredictor::update(Addr pc, std::uint64_t, bool taken)
{
    bpred::bump<3>(table_[pcIndex(pc)], taken);
}

std::vector<std::uint8_t>
BimodalPredictor::saveState() const
{
    return {table_.begin(), table_.end()};
}

void
BimodalPredictor::restoreState(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() != table_.size()) {
        fatal("bimodal predictor state: ", bytes.size(),
              " bytes, expected ", table_.size());
    }
    std::copy(bytes.begin(), bytes.end(), table_.begin());
}

} // namespace drsim
