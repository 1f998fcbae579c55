#include "workloads/emulator.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace drsim {

namespace {

/** Simulated physical address space bound (wrong-path addresses are
 *  wrapped into it so cache tags stay well-formed). */
constexpr Addr kAddrMask = (Addr{1} << 44) - 1;

Addr
canonical(Addr a)
{
    return a & kAddrMask & ~Addr{7};
}

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

} // namespace

Emulator::Emulator(const Program &prog) : Emulator(&prog, nullptr)
{
}

Emulator::Emulator(Program &&prog)
    : Emulator(nullptr,
               std::make_unique<const Program>(std::move(prog)))
{
}

Emulator::Emulator(const Program &prog, const EmuArchState &state)
    : Emulator(&prog, nullptr, &state)
{
}

Emulator::Emulator(const Program *external,
                   std::unique_ptr<const Program> owned,
                   const EmuArchState *restore_from)
    : ownedProg_(std::move(owned)),
      prog_(external != nullptr ? *external : *ownedProg_)
{
    if (restore_from != nullptr) {
        restoreArchState(*restore_from);
        return;
    }
    loc_ = prog_.entry();
    // Round the segment bound up to the 8-byte word grid canonical()
    // snaps addresses to, so the last partially-covered word is dense.
    dataLimit_ = (prog_.dataLimit() + 7) & ~Addr{7};
    data_.assign(std::size_t((dataLimit_ - kDataBase) / 8), 0);
    for (const DataWord &w : prog_.initialWords()) {
        // Reads always canonicalize, so only canonical addresses may
        // land in the dense segment; a non-canonical initial address
        // stays in the map, unreachable, exactly as before.
        if (canonical(w.addr) == w.addr)
            rawWriteMem(w.addr, w.value);
        else
            mem_[w.addr] = w.value;
    }
}

Addr
Emulator::pc() const
{
    if (fetchBlocked())
        DRSIM_PANIC("pc() while fetch is blocked");
    return prog_.pcOf(loc_);
}

const Instruction *
Emulator::peek() const
{
    if (fetchBlocked())
        return nullptr;
    return &prog_.instAt(loc_);
}

double
Emulator::fpRegValue(int idx) const
{
    return idx == kZeroReg ? 0.0 : fpRegs_[idx];
}

std::uint64_t
Emulator::memWord(Addr addr) const
{
    addr = canonical(addr);
    if (inDataSegment(addr))
        return data_[std::size_t((addr - kDataBase) / 8)];
    const auto it = mem_.find(addr);
    return it == mem_.end() ? 0 : it->second;
}

void
Emulator::writeInt(int idx, std::uint64_t bits)
{
    if (idx == kZeroReg)
        return;
    if (!liveMarks_.empty()) {
        undo_.push_back({UndoEntry::Kind::IntReg,
                         std::uint8_t(idx), 0, intRegs_[idx]});
    }
    intRegs_[idx] = bits;
}

void
Emulator::writeFp(int idx, double value)
{
    if (idx == kZeroReg)
        return;
    if (!liveMarks_.empty()) {
        undo_.push_back({UndoEntry::Kind::FpReg, std::uint8_t(idx), 0,
                         std::bit_cast<std::uint64_t>(fpRegs_[idx])});
    }
    fpRegs_[idx] = value;
}

void
Emulator::writeMem(Addr addr, std::uint64_t bits)
{
    addr = canonical(addr);
    if (inDataSegment(addr)) {
        std::uint64_t &slot = data_[std::size_t((addr - kDataBase) / 8)];
        if (!liveMarks_.empty())
            undo_.push_back({UndoEntry::Kind::Mem, 0, addr, slot});
        slot = bits;
        return;
    }
    auto [it, inserted] = mem_.try_emplace(addr, 0);
    if (!liveMarks_.empty())
        undo_.push_back({UndoEntry::Kind::Mem, 0, addr, it->second});
    it->second = bits;
}

void
Emulator::rawWriteMem(Addr addr, std::uint64_t bits)
{
    if (inDataSegment(addr))
        data_[std::size_t((addr - kDataBase) / 8)] = bits;
    else
        mem_[addr] = bits;
}

inline Emulator::Executed
Emulator::execute(Opcode op, std::uint8_t src1, std::uint8_t src2,
                  std::int64_t imm, Addr fall_pc) const
{
    // Integer b-operand: src2 if present, else the immediate.
    const std::uint64_t b =
        src2 != RegId::kInvalidIndex ? intAt(src2) : std::uint64_t(imm);

    Executed x;
    switch (op) {
      case Opcode::Add:
        x.destBits = intAt(src1) + b;
        break;
      case Opcode::Sub:
        x.destBits = intAt(src1) - b;
        break;
      case Opcode::And:
        x.destBits = intAt(src1) & b;
        break;
      case Opcode::Or:
        x.destBits = intAt(src1) | b;
        break;
      case Opcode::Xor:
        x.destBits = intAt(src1) ^ b;
        break;
      case Opcode::Sll:
        x.destBits = intAt(src1) << (b & 63);
        break;
      case Opcode::Srl:
        x.destBits = intAt(src1) >> (b & 63);
        break;
      case Opcode::Cmplt:
        x.destBits = std::int64_t(intAt(src1)) < std::int64_t(b);
        break;
      case Opcode::Cmple:
        x.destBits = std::int64_t(intAt(src1)) <= std::int64_t(b);
        break;
      case Opcode::Cmpeq:
        x.destBits = intAt(src1) == b;
        break;
      case Opcode::Mul:
        x.destBits = intAt(src1) * b;
        break;

      case Opcode::Fadd:
        x.destBits = std::bit_cast<std::uint64_t>(fpAt(src1) + fpAt(src2));
        break;
      case Opcode::Fsub:
        x.destBits = std::bit_cast<std::uint64_t>(fpAt(src1) - fpAt(src2));
        break;
      case Opcode::Fmul:
        x.destBits = std::bit_cast<std::uint64_t>(fpAt(src1) * fpAt(src2));
        break;
      case Opcode::Fcmplt:
        x.destBits = std::bit_cast<std::uint64_t>(
            fpAt(src1) < fpAt(src2) ? 1.0 : 0.0);
        break;
      case Opcode::Itof:
        x.destBits = std::bit_cast<std::uint64_t>(
            double(std::int64_t(intAt(src1))));
        break;
      case Opcode::Ftoi: {
        const double v = fpAt(src1);
        // Arithmetic exceptions are not modeled (paper Section 2);
        // wrong-path garbage converts to 0 instead of trapping.
        x.destBits = std::isfinite(v) && std::abs(v) < 0x1.0p62
                         ? std::uint64_t(std::int64_t(v))
                         : 0;
        break;
      }
      case Opcode::Fdivs: {
        const float fb = float(fpAt(src2));
        const float fa = float(fpAt(src1));
        x.destBits = std::bit_cast<std::uint64_t>(
            fb == 0.0f ? 0.0 : double(fa / fb));
        break;
      }
      case Opcode::Fdivd: {
        const double db = fpAt(src2);
        x.destBits = std::bit_cast<std::uint64_t>(
            db == 0.0 ? 0.0 : fpAt(src1) / db);
        break;
      }
      case Opcode::Fsqrt: {
        const double a = fpAt(src1);
        x.destBits =
            std::bit_cast<std::uint64_t>(a < 0.0 ? 0.0 : std::sqrt(a));
        break;
      }

      case Opcode::Ldq:
      case Opcode::Ldt:
        x.effAddr = canonical(intAt(src1) + std::uint64_t(imm));
        x.destBits = memWord(x.effAddr);
        break;
      case Opcode::Stq:
        x.effAddr = canonical(intAt(src1) + std::uint64_t(imm));
        x.storeBits = intAt(src2);
        break;
      case Opcode::Stt:
        x.effAddr = canonical(intAt(src1) + std::uint64_t(imm));
        x.storeBits = std::bit_cast<std::uint64_t>(fpAt(src2));
        break;

      case Opcode::Beq:
        x.taken = intAt(src1) == 0;
        break;
      case Opcode::Bne:
        x.taken = intAt(src1) != 0;
        break;
      case Opcode::Fbeq:
        x.taken = fpAt(src1) == 0.0;
        break;
      case Opcode::Fbne:
        x.taken = fpAt(src1) != 0.0;
        break;

      case Opcode::Jsr:
        x.destBits = fall_pc;
        break;
      case Opcode::Ret:
        x.retPc = intAt(src1);
        break;
      case Opcode::Br:
      case Opcode::Halt:
        break;
    }
    return x;
}

inline StepInfo
Emulator::stepAlong(bool arch, bool follow_taken)
{
    const Instruction &inst = prog_.instAt(loc_);
    const CodeLoc fall = prog_.nextLoc(loc_);
    const Addr fall_pc = fall.valid() ? prog_.pcOf(fall) : 0;
    Executed x = execute(inst.op, inst.src1.index, inst.src2.index,
                         inst.imm, fall_pc);
    ++steps_;

    StepInfo info;
    info.inst = &inst;
    info.pc = prog_.pcOf(loc_);
    info.destBits = x.destBits;
    info.effAddr = x.effAddr;
    info.storeBits = x.storeBits;
    info.actualTaken = x.taken;
    info.actualNextPc = fall_pc;

    CodeLoc next = fall;
    switch (inst.op) {
      case Opcode::Stq:
      case Opcode::Stt:
        writeMem(x.effAddr, x.storeBits);
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Fbeq:
      case Opcode::Fbne: {
        const CodeLoc tgt = prog_.blockEntryResolved(inst.target);
        if (!tgt.valid())
            DRSIM_PANIC("conditional branch to empty tail");
        if (x.taken)
            info.actualNextPc = prog_.pcOf(tgt);
        next = (arch ? x.taken : follow_taken) ? tgt : fall;
        break;
      }
      case Opcode::Br:
      case Opcode::Jsr:
        next = prog_.blockEntryResolved(inst.target);
        info.actualNextPc = next.valid() ? prog_.pcOf(next) : 0;
        break;
      case Opcode::Ret:
        next = prog_.locOf(x.retPc);
        info.actualNextPc = x.retPc;
        break;
      case Opcode::Halt:
        info.isHalt = true;
        info.actualNextPc = 0;
        next = {};
        break;
      default:
        break;
    }

    if (inst.dest.renamed()) {
        if (inst.dest.cls == RegClass::Int)
            writeInt(inst.dest.index, x.destBits);
        else
            writeFp(inst.dest.index, std::bit_cast<double>(x.destBits));
    }

    loc_ = next;
    return info;
}

StepInfo
Emulator::step(bool follow_taken)
{
    if (fetchBlocked())
        DRSIM_PANIC("step() while fetch is blocked");
    return stepAlong(false, follow_taken);
}

StepInfo
Emulator::stepArch()
{
    if (fetchBlocked())
        DRSIM_PANIC("stepArch() while fetch is blocked");
    return stepAlong(true, false);
}

void
Emulator::buildFFTable()
{
    const auto &blocks = prog_.blocks();
    const std::int32_t total = std::int32_t(prog_.numInsts());
    ffBlockBase_.resize(blocks.size() + 1);
    ffLocs_.reserve(std::size_t(total));
    ffTable_.reserve(std::size_t(total));

    std::int32_t flat = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        ffBlockBase_[b] = flat;
        for (std::size_t i = 0; i < blocks[b].insts.size(); ++i) {
            ffLocs_.push_back(
                {std::int32_t(b), std::int32_t(i)});
            ++flat;
        }
    }
    ffBlockBase_[blocks.size()] = flat;

    for (std::int32_t f = 0; f < total; ++f) {
        const Instruction &inst = prog_.instAt(ffLocs_[std::size_t(f)]);
        FFInst d{};
        d.op = inst.op;
        d.destCls = inst.dest.renamed()
                        ? std::uint8_t(inst.dest.cls)
                        : std::uint8_t(0xff);
        d.dest = inst.dest.index;
        d.src1 = inst.src1.index;
        d.src2 = inst.src2.index;
        d.imm = inst.imm;
        d.fall = f + 1 < total ? f + 1 : -1;
        d.fallPc = d.fall >= 0
                       ? prog_.pcOf(ffLocs_[std::size_t(d.fall)])
                       : 0;
        d.target = -1;
        if (inst.target >= 0) {
            const std::int32_t base =
                ffBlockBase_[std::size_t(inst.target)];
            d.target = base < total ? base : -1;
        }
        ffTable_.push_back(d);
    }
}

std::uint64_t
Emulator::fastForward(std::uint64_t n)
{
    if (!liveMarks_.empty()) {
        DRSIM_PANIC("fastForward() with ", liveMarks_.size(),
                    " live checkpoints");
    }
    if (ffTable_.empty())
        buildFFTable();
    return ffObs_ != nullptr ? fastForwardLoop<true>(n)
                             : fastForwardLoop<false>(n);
}

template <bool Observed>
std::uint64_t
Emulator::fastForwardLoop(std::uint64_t n)
{
    // Registers and memory are written directly — with no live
    // checkpoints the undo log is provably empty, so this loop is
    // pure architectural execution over the predecoded table.
    std::int32_t cur = loc_.valid() ? ffIndexOf(loc_) : -1;
    std::uint64_t done = 0;
    while (done < n && cur >= 0) {
        const FFInst &d = ffTable_[std::size_t(cur)];
        if (d.op == Opcode::Halt)
            break; // leave the Halt for the detailed run to commit

        Executed x = execute(d.op, d.src1, d.src2, d.imm, d.fallPc);
        std::int32_t next = d.fall;
        switch (d.op) {
          case Opcode::Stq:
          case Opcode::Stt:
            rawWriteMem(x.effAddr, x.storeBits);
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Fbeq:
          case Opcode::Fbne:
            if (d.target == -1)
                DRSIM_PANIC("conditional branch to empty tail");
            if (x.taken)
                next = d.target;
            break;
          case Opcode::Br:
          case Opcode::Jsr:
            next = d.target;
            break;
          case Opcode::Ret: {
            const CodeLoc tgt = prog_.locOf(x.retPc);
            next = tgt.valid() ? ffIndexOf(tgt) : -1;
            break;
          }
          default:
            break;
        }

        if constexpr (Observed) {
            const Addr pc = prog_.pcOf(ffLocs_[std::size_t(cur)]);
            ffObs_->ffFetch(pc);
            const OpClass cls = opTraits(d.op).cls;
            if (cls == OpClass::MemLoad || cls == OpClass::MemStore)
                ffObs_->ffMem(x.effAddr, cls == OpClass::MemStore);
            else if (cls == OpClass::CtrlCond)
                ffObs_->ffBranch(pc, x.taken);
        }

        if (d.destCls == std::uint8_t(RegClass::Int))
            intRegs_[d.dest] = x.destBits;
        else if (d.destCls == std::uint8_t(RegClass::Fp))
            fpRegs_[d.dest] = std::bit_cast<double>(x.destBits);

        ++done;
        cur = next;
    }

    steps_ += done;
    loc_ = cur >= 0 ? ffLocs_[std::size_t(cur)] : CodeLoc{};
    return done;
}

std::int32_t
Emulator::ffIndexOf(CodeLoc loc) const
{
    return ffBlockBase_[std::size_t(loc.block)] + loc.offset;
}

EmuArchState
Emulator::saveArchState() const
{
    if (!liveMarks_.empty()) {
        DRSIM_PANIC("saveArchState() with ", liveMarks_.size(),
                    " live checkpoints");
    }
    EmuArchState s;
    s.loc = loc_;
    s.intRegs = intRegs_;
    s.fpRegs = fpRegs_;
    s.data = data_;
    s.dataLimit = dataLimit_;
    s.mem = mem_;
    s.steps = steps_;
    return s;
}

void
Emulator::restoreArchState(const EmuArchState &state)
{
    if (!liveMarks_.empty()) {
        DRSIM_PANIC("restoreArchState() with ", liveMarks_.size(),
                    " live checkpoints");
    }
    loc_ = state.loc;
    intRegs_ = state.intRegs;
    fpRegs_ = state.fpRegs;
    data_ = state.data;
    dataLimit_ = state.dataLimit;
    mem_ = state.mem;
    steps_ = state.steps;
    undo_.clear();
    undoBase_ = 0;
}

EmuCheckpoint
Emulator::takeCheckpoint()
{
    const std::uint64_t mark = undoBase_ + undo_.size();
    ++liveMarks_[mark];
    return mark;
}

void
Emulator::releaseCheckpoint(EmuCheckpoint cp)
{
    const auto it = liveMarks_.find(cp);
    if (it == liveMarks_.end())
        DRSIM_PANIC("release of unknown checkpoint ", cp);
    if (--it->second == 0)
        liveMarks_.erase(it);
    pruneUndo();
}

void
Emulator::pruneUndo()
{
    const std::uint64_t keep_from =
        liveMarks_.empty() ? undoBase_ + undo_.size()
                           : liveMarks_.begin()->first;
    while (!undo_.empty() && undoBase_ < keep_from) {
        undo_.pop_front();
        ++undoBase_;
    }
}

void
Emulator::rollbackTo(EmuCheckpoint cp, Addr resume_pc)
{
    if (!liveMarks_.empty() && liveMarks_.rbegin()->first > cp)
        DRSIM_PANIC("rollback below a younger live checkpoint");
    while (undoBase_ + undo_.size() > cp) {
        if (undo_.empty())
            DRSIM_PANIC("undo log underflow rolling back to ", cp);
        const UndoEntry e = undo_.back();
        undo_.pop_back();
        switch (e.kind) {
          case UndoEntry::Kind::IntReg:
            intRegs_[e.regIndex] = e.oldBits;
            break;
          case UndoEntry::Kind::FpReg:
            fpRegs_[e.regIndex] = std::bit_cast<double>(e.oldBits);
            break;
          case UndoEntry::Kind::Mem:
            rawWriteMem(e.addr, e.oldBits);
            break;
        }
    }
    loc_ = prog_.locOf(resume_pc);
    if (!loc_.valid())
        DRSIM_PANIC("rollback resume pc ", resume_pc, " is not code");
}

std::uint64_t
Emulator::stateHash() const
{
    std::uint64_t h = 0x12345678;
    for (int i = 0; i < kNumVirtualRegs; ++i) {
        h ^= mix64(intRegs_[std::size_t(i)] + std::uint64_t(i) * 0x9e37);
        h ^= mix64(
            std::bit_cast<std::uint64_t>(fpRegs_[std::size_t(i)]) +
            std::uint64_t(i) * 0xabcd);
    }
    // Memory digest must be order-independent (dense segment plus
    // unordered_map overflow).  Zero words are skipped: unmapped
    // memory reads as zero, so a zero-valued entry (e.g. left by a
    // rolled-back wrong-path store to a fresh address) is
    // semantically absent.
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (data_[i] != 0) {
            const Addr addr = kDataBase + Addr(i) * 8;
            h ^= mix64(addr * 0x9e3779b97f4a7c15ull ^ mix64(data_[i]));
        }
    }
    for (const auto &[addr, word] : mem_) {
        if (word != 0)
            h ^= mix64(addr * 0x9e3779b97f4a7c15ull ^ mix64(word));
    }
    return h;
}

} // namespace drsim
