#include "workloads/program.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workloads/digest.hh"

namespace drsim {

void
Program::finalize()
{
    if (finalized_) {
        fatal("program '", name_, "': finalize() called twice; a "
              "Program is laid out exactly once after construction");
    }
    // Reject branch targets outside the block table up front: a bad
    // index would otherwise surface as an out-of-range access (or
    // silent misfetch) mid-simulation.
    for (const auto &bb : blocks_) {
        const auto b = std::int32_t(&bb - blocks_.data());
        for (std::int32_t i = 0; i < std::int32_t(bb.insts.size());
             ++i) {
            const Instruction &inst = bb.insts[std::size_t(i)];
            if (!inst.isControl() || inst.op == Opcode::Ret)
                continue;
            if (inst.target < 0 ||
                inst.target >= std::int32_t(blocks_.size())) {
                fatal("program '", name_, "': block ", b, " inst ", i,
                      " (", opTraits(inst.op).name,
                      ") targets invalid block index ", inst.target,
                      " (program has ", blocks_.size(), " blocks)");
            }
        }
    }
    Addr pc = kCodeBase;
    numInsts_ = 0;
    for (auto &bb : blocks_) {
        bb.startPc = pc;
        for (std::int32_t i = 0; i < std::int32_t(bb.insts.size()); ++i) {
            pcTable_.push_back(
                {std::int32_t(&bb - blocks_.data()), i});
            pc += kInstBytes;
        }
        numInsts_ += bb.insts.size();
    }
    finalized_ = true;
    // Fill the digest cache while digest_ is still empty, so
    // programDigest() takes its computing path exactly once.
    digest_ = programDigest(*this);
}

std::optional<std::uint64_t>
Program::initialWord(Addr addr) const
{
    const auto it = std::lower_bound(
        initialWords_.begin(), initialWords_.end(), addr,
        [](const DataWord &w, Addr a) { return w.addr < a; });
    if (it == initialWords_.end() || it->addr != addr)
        return std::nullopt;
    return it->value;
}

CodeLoc
Program::locOf(Addr pc) const
{
    if (pc < kCodeBase || (pc - kCodeBase) % kInstBytes != 0)
        return {};
    const Addr slot = (pc - kCodeBase) / kInstBytes;
    if (slot >= pcTable_.size())
        return {};
    return pcTable_[slot];
}

CodeLoc
Program::blockEntryResolved(int block) const
{
    if (block < 0)
        return {};
    for (int b = block; b < int(blocks_.size()); ++b)
        if (!blocks_[b].insts.empty())
            return {b, 0};
    return {};
}

CodeLoc
Program::nextLocSlow(CodeLoc loc) const
{
    // Fall through to the next non-empty block.
    for (int b = loc.block + 1; b < int(blocks_.size()); ++b)
        if (!blocks_[b].insts.empty())
            return {b, 0};
    return {};
}

} // namespace drsim
