#include "bpred/mcfarling.hh"

#include "common/logging.hh"

namespace drsim {

CombinedPredictor::CombinedPredictor()
{
    // Weakly not-taken counters; neutral selector.
    pcTable_.fill({1, 1});
    global_.fill(1);
}

bool
CombinedPredictor::predict(Addr pc) const
{
    const PcEntry &e = pcTable_[pcIndex(pc)];
    const bool bi = bpred::counterTaken<3>(e.bimodal);
    const bool gl =
        bpred::counterTaken<3>(global_[gshareIndex(pc, history_)]);
    const bool use_global = bpred::counterTaken<3>(e.selector);
    return use_global ? gl : bi;
}

void
CombinedPredictor::update(Addr pc, std::uint64_t history_used,
                          bool taken)
{
    PcEntry &e = pcTable_[pcIndex(pc)];
    std::uint8_t &gl = global_[gshareIndex(
        pc, std::uint32_t(history_used) & kHistoryMask)];
    const bool bi_correct = bpred::counterTaken<3>(e.bimodal) == taken;
    const bool gl_correct = bpred::counterTaken<3>(gl) == taken;
    // The selector trains toward whichever component was right.
    if (bi_correct != gl_correct)
        bpred::bump<3>(e.selector, gl_correct);
    bpred::bump<3>(e.bimodal, taken);
    bpred::bump<3>(gl, taken);
}

std::vector<std::uint8_t>
CombinedPredictor::saveState() const
{
    std::vector<std::uint8_t> out;
    out.reserve(std::size_t(3) * kTableSize + 8);
    for (const PcEntry &e : pcTable_) {
        out.push_back(e.bimodal);
        out.push_back(e.selector);
    }
    for (const std::uint8_t g : global_)
        out.push_back(g);
    bpred::putU64(out, history_);
    return out;
}

void
CombinedPredictor::restoreState(const std::vector<std::uint8_t> &bytes)
{
    const std::size_t expect = std::size_t(3) * kTableSize + 8;
    if (bytes.size() != expect) {
        fatal("mcfarling predictor state: ", bytes.size(),
              " bytes, expected ", expect);
    }
    std::size_t at = 0;
    for (PcEntry &e : pcTable_) {
        e.bimodal = bytes[at++];
        e.selector = bytes[at++];
    }
    for (std::uint8_t &g : global_)
        g = bytes[at++];
    setHistory(bpred::getU64(bytes, at));
}

} // namespace drsim
