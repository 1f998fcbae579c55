#include "core/regfile.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace drsim {

namespace {

/** Indexed by ExceptionModel. */
const char *const kExceptionModelNames[] = {"precise", "imprecise"};

} // namespace

const char *
exceptionModelName(ExceptionModel model)
{
    const auto i = std::size_t(model);
    return i < std::size(kExceptionModelNames) ? kExceptionModelNames[i]
                                               : "?";
}

std::optional<ExceptionModel>
exceptionModelFromName(const std::string &name)
{
    for (std::size_t i = 0; i < std::size(kExceptionModelNames); ++i) {
        if (name == kExceptionModelNames[i])
            return ExceptionModel(i);
    }
    return std::nullopt;
}

RenameUnit::RenameUnit(int num_phys_regs, ExceptionModel model)
    : numPhysRegs_(num_phys_regs), model_(model)
{
    for (auto &f : files_) {
        f.regs.assign(numPhysRegs_, {});
        f.map.fill(kInvalidPhysReg);
        f.catCount.fill(0);
        f.catCount[int(LiveCat::Free)] = numPhysRegs_;
        // Initial architectural mappings: one live register per
        // renameable virtual register, writer "completed" at time 0.
        for (int v = 0; v < kNumVirtualRegs; ++v) {
            if (v == kZeroReg)
                continue;
            const auto preg = PhysRegIndex(v);
            PhysRegInfo &info = f.regs[preg];
            info.writerCompleted = true;
            info.readyCycle = 0;
            info.writerSeq = 0;
            setCat(f, preg, LiveCat::WaitImprecise);
            f.map[v] = preg;
            f.mappings[v].push_back({preg, 0});
        }
        // Physical registers 0..30 hold the initial mappings; the
        // rest (including index 31 — the zero register has no backing
        // physical register) start on the free list.
        f.freeList.reserve(std::size_t(numPhysRegs_));
        f.freedThisCycle.reserve(std::size_t(numPhysRegs_));
        for (int p = numPhysRegs_ - 1; p >= kNumVirtualRegs - 1; --p)
            f.freeList.push_back(PhysRegIndex(p));
    }
}

void
RenameUnit::beginCycle(Cycle now)
{
    now_ = now;
    for (auto &f : files_) {
        for (const PhysRegIndex preg : f.freedThisCycle)
            f.freeList.push_back(preg);
        f.freedThisCycle.clear();
    }
}

bool
RenameUnit::canAllocate(RegClass cls) const
{
    return !file(cls).freeList.empty();
}

PhysRegIndex
RenameUnit::renameSrc(RegId reg)
{
    if (!reg.renamed())
        return kInvalidPhysReg;
    File &f = file(reg.cls);
    const PhysRegIndex preg = f.map[reg.index];
    ++f.regs[preg].pendingUsers;
    return preg;
}

RenameUnit::Alloc
RenameUnit::renameDest(RegId reg, InstSeqNum seq)
{
    File &f = file(reg.cls);
    if (f.freeList.empty())
        DRSIM_PANIC("renameDest with empty free list");
    const PhysRegIndex preg = f.freeList.back();
    f.freeList.pop_back();
    const PhysRegIndex prev = f.map[reg.index];

    PhysRegInfo &info = f.regs[preg];
    info.readyCycle = kInvalidCycle;
    info.pendingUsers = 0;
    info.writerCompleted = false;
    info.killed = false;
    info.impreciseMet = false;
    info.writerSeq = seq;
    info.allocCycle = now_;
    setCat(f, preg, LiveCat::InQueue);

    f.map[reg.index] = preg;
    f.mappings[reg.index].push_back({preg, seq});
    return {preg, prev};
}

void
RenameUnit::setReady(RegClass cls, PhysRegIndex preg, Cycle cycle)
{
    file(cls).regs[preg].readyCycle = cycle;
}

void
RenameUnit::onIssueWriter(RegClass cls, PhysRegIndex preg)
{
    setCat(file(cls), preg, LiveCat::InFlight);
}

void
RenameUnit::onWriterComplete(RegClass cls, PhysRegIndex preg)
{
    File &f = file(cls);
    PhysRegInfo &info = f.regs[preg];
    info.writerCompleted = true;
    setCat(f, preg, LiveCat::WaitImprecise);
    maybeImpreciseFree(f, preg);
}

void
RenameUnit::onUserDone(RegClass cls, PhysRegIndex preg)
{
    File &f = file(cls);
    PhysRegInfo &info = f.regs[preg];
    if (info.pendingUsers == 0)
        DRSIM_PANIC("user-done underflow on preg ", preg);
    --info.pendingUsers;
    maybeImpreciseFree(f, preg);
}

void
RenameUnit::kill(RegClass cls, int vreg, InstSeqNum killer_seq)
{
    File &f = file(cls);
    auto &deque = f.mappings[vreg];
    while (!deque.empty() && deque.front().writerSeq < killer_seq) {
        const PhysRegIndex preg = deque.front().preg;
        deque.pop_front();
        f.regs[preg].killed = true;
        maybeImpreciseFree(f, preg);
    }
}

void
RenameUnit::maybeImpreciseFree(File &f, PhysRegIndex preg)
{
    PhysRegInfo &info = f.regs[preg];
    if (info.impreciseMet || !info.writerCompleted || !info.killed ||
        info.pendingUsers != 0) {
        return;
    }
    info.impreciseMet = true;
    if (model_ == ExceptionModel::Imprecise) {
        release(f, preg);
    } else {
        // Shadow accounting: the register would be free under the
        // imprecise model but waits for the precise conditions.
        setCat(f, preg, LiveCat::WaitPrecise);
    }
}

void
RenameUnit::onCommitWriter(RegClass cls, PhysRegIndex prev_dest)
{
    if (prev_dest == kInvalidPhysReg)
        return;
    if (model_ != ExceptionModel::Precise)
        return; // the kill engine frees it
    File &f = file(cls);
    release(f, prev_dest);
}

void
RenameUnit::squashWriter(RegClass cls, int vreg, PhysRegIndex dest,
                         PhysRegIndex prev_dest, InstSeqNum seq)
{
    File &f = file(cls);
    auto &deque = f.mappings[vreg];
    if (deque.empty() || deque.back().preg != dest ||
        deque.back().writerSeq != seq) {
        DRSIM_PANIC("squash restore out of order (vreg ", vreg, ")");
    }
    deque.pop_back();
    f.map[vreg] = prev_dest;
    release(f, dest);
}

void
RenameUnit::release(File &f, PhysRegIndex preg)
{
    PhysRegInfo &info = f.regs[preg];
    if (info.cat == LiveCat::Free)
        DRSIM_PANIC("double free of preg ", preg);
    lifetimes_[&f - files_.data()].addSample(now_ - info.allocCycle);
    setCat(f, preg, LiveCat::Free);
    info.readyCycle = kInvalidCycle;
    info.pendingUsers = 0;
    info.writerCompleted = false;
    info.killed = false;
    info.impreciseMet = false;
    // Reusable in the *next* cycle (paper Section 2.2).
    f.freedThisCycle.push_back(preg);
}

PhysRegIndex
RenameUnit::mapOf(RegClass cls, int vreg) const
{
    return file(cls).map[vreg];
}

std::size_t
RenameUnit::freeCount(RegClass cls) const
{
    return file(cls).freeList.size();
}

LiveCounts
RenameUnit::liveCounts(RegClass cls) const
{
    const File &f = file(cls);
    return {f.catCount[int(LiveCat::InQueue)],
            f.catCount[int(LiveCat::InFlight)],
            f.catCount[int(LiveCat::WaitImprecise)],
            f.catCount[int(LiveCat::WaitPrecise)]};
}

void
RenameUnit::setCat(File &f, PhysRegIndex preg, LiveCat cat)
{
    PhysRegInfo &info = f.regs[preg];
    --f.catCount[int(info.cat)];
    info.cat = cat;
    ++f.catCount[int(cat)];
}

void
RenameUnit::audit() const
{
    for (const auto &f : files_) {
        std::array<std::uint64_t, kNumLiveCats> counts{};
        for (const auto &info : f.regs)
            ++counts[int(info.cat)];
        for (int c = 0; c < kNumLiveCats; ++c) {
            if (counts[c] != f.catCount[c])
                DRSIM_PANIC("liveness counter mismatch in cat ", c,
                            ": ", counts[c], " vs ", f.catCount[c]);
        }
        if (f.freeList.size() + f.freedThisCycle.size() !=
            f.catCount[int(LiveCat::Free)]) {
            DRSIM_PANIC("free list size ", f.freeList.size(), "+",
                        f.freedThisCycle.size(), " != free count ",
                        f.catCount[int(LiveCat::Free)]);
        }
        for (int v = 0; v < kNumVirtualRegs; ++v) {
            if (v == kZeroReg)
                continue;
            if (f.map[v] == kInvalidPhysReg)
                DRSIM_PANIC("virtual register ", v, " unmapped");
            if (f.mappings[v].empty() ||
                f.mappings[v].back().preg != f.map[v]) {
                DRSIM_PANIC("mapping deque out of sync for vreg ", v);
            }
            if (f.regs[f.map[v]].cat == LiveCat::Free)
                DRSIM_PANIC("current mapping of vreg ", v, " is free");
            InstSeqNum prev_seq = 0;
            bool first = true;
            for (const MapEntry &e : f.mappings[v]) {
                if (!first && e.writerSeq <= prev_seq)
                    DRSIM_PANIC("mapping deque of vreg ", v,
                                " not strictly ordered");
                prev_seq = e.writerSeq;
                first = false;
                if (f.regs[e.preg].cat == LiveCat::Free)
                    DRSIM_PANIC("freed preg ", e.preg,
                                " still mapped for vreg ", v);
            }
        }
    }
}

} // namespace drsim
