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

std::uint64_t
Emulator::intVal(RegId r) const
{
    if (!r.valid())
        return 0;
    return r.index == kZeroReg ? 0 : intRegs_[r.index];
}

double
Emulator::fpVal(RegId r) const
{
    if (!r.valid())
        return 0.0;
    return r.index == kZeroReg ? 0.0 : fpRegs_[r.index];
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

StepInfo
Emulator::step(bool follow_taken)
{
    if (fetchBlocked())
        DRSIM_PANIC("step() while fetch is blocked");

    const Instruction &inst = prog_.instAt(loc_);
    StepInfo info;
    info.inst = &inst;
    info.pc = prog_.pcOf(loc_);
    ++steps_;

    const CodeLoc fall = prog_.nextLoc(loc_);
    const Addr fall_pc = fall.valid() ? prog_.pcOf(fall) : 0;

    // Integer b-operand: src2 if present, else the immediate.
    const auto bOp = [&]() -> std::uint64_t {
        return inst.src2.valid() ? intVal(inst.src2)
                                 : std::uint64_t(inst.imm);
    };

    CodeLoc next = fall;
    info.actualNextPc = fall_pc;

    switch (inst.op) {
      case Opcode::Add:
        info.destBits = intVal(inst.src1) + bOp();
        break;
      case Opcode::Sub:
        info.destBits = intVal(inst.src1) - bOp();
        break;
      case Opcode::And:
        info.destBits = intVal(inst.src1) & bOp();
        break;
      case Opcode::Or:
        info.destBits = intVal(inst.src1) | bOp();
        break;
      case Opcode::Xor:
        info.destBits = intVal(inst.src1) ^ bOp();
        break;
      case Opcode::Sll:
        info.destBits = intVal(inst.src1) << (bOp() & 63);
        break;
      case Opcode::Srl:
        info.destBits = intVal(inst.src1) >> (bOp() & 63);
        break;
      case Opcode::Cmplt:
        info.destBits = std::int64_t(intVal(inst.src1)) <
                        std::int64_t(bOp());
        break;
      case Opcode::Cmple:
        info.destBits = std::int64_t(intVal(inst.src1)) <=
                        std::int64_t(bOp());
        break;
      case Opcode::Cmpeq:
        info.destBits = intVal(inst.src1) == bOp();
        break;
      case Opcode::Mul:
        info.destBits = intVal(inst.src1) * bOp();
        break;

      case Opcode::Fadd:
        info.destBits = std::bit_cast<std::uint64_t>(
            fpVal(inst.src1) + fpVal(inst.src2));
        break;
      case Opcode::Fsub:
        info.destBits = std::bit_cast<std::uint64_t>(
            fpVal(inst.src1) - fpVal(inst.src2));
        break;
      case Opcode::Fmul:
        info.destBits = std::bit_cast<std::uint64_t>(
            fpVal(inst.src1) * fpVal(inst.src2));
        break;
      case Opcode::Fcmplt:
        info.destBits = std::bit_cast<std::uint64_t>(
            fpVal(inst.src1) < fpVal(inst.src2) ? 1.0 : 0.0);
        break;
      case Opcode::Itof:
        info.destBits = std::bit_cast<std::uint64_t>(
            double(std::int64_t(intVal(inst.src1))));
        break;
      case Opcode::Ftoi: {
        const double v = fpVal(inst.src1);
        // Arithmetic exceptions are not modeled (paper Section 2);
        // wrong-path garbage converts to 0 instead of trapping.
        info.destBits = std::isfinite(v) &&
                        std::abs(v) < 0x1.0p62
                            ? std::uint64_t(std::int64_t(v))
                            : 0;
        break;
      }
      case Opcode::Fdivs: {
        const float b = float(fpVal(inst.src2));
        const float a = float(fpVal(inst.src1));
        info.destBits = std::bit_cast<std::uint64_t>(
            b == 0.0f ? 0.0 : double(a / b));
        break;
      }
      case Opcode::Fdivd: {
        const double b = fpVal(inst.src2);
        info.destBits = std::bit_cast<std::uint64_t>(
            b == 0.0 ? 0.0 : fpVal(inst.src1) / b);
        break;
      }
      case Opcode::Fsqrt: {
        const double a = fpVal(inst.src1);
        info.destBits = std::bit_cast<std::uint64_t>(
            a < 0.0 ? 0.0 : std::sqrt(a));
        break;
      }

      case Opcode::Ldq:
      case Opcode::Ldt:
        info.effAddr = canonical(intVal(inst.src1) +
                                 std::uint64_t(inst.imm));
        info.destBits = memWord(info.effAddr);
        break;
      case Opcode::Stq:
        info.effAddr = canonical(intVal(inst.src1) +
                                 std::uint64_t(inst.imm));
        info.storeBits = intVal(inst.src2);
        writeMem(info.effAddr, info.storeBits);
        break;
      case Opcode::Stt:
        info.effAddr = canonical(intVal(inst.src1) +
                                 std::uint64_t(inst.imm));
        info.storeBits = std::bit_cast<std::uint64_t>(fpVal(inst.src2));
        writeMem(info.effAddr, info.storeBits);
        break;

      case Opcode::Beq:
        info.actualTaken = intVal(inst.src1) == 0;
        break;
      case Opcode::Bne:
        info.actualTaken = intVal(inst.src1) != 0;
        break;
      case Opcode::Fbeq:
        info.actualTaken = fpVal(inst.src1) == 0.0;
        break;
      case Opcode::Fbne:
        info.actualTaken = fpVal(inst.src1) != 0.0;
        break;

      case Opcode::Br:
        next = prog_.blockEntryResolved(inst.target);
        info.actualNextPc = next.valid() ? prog_.pcOf(next) : 0;
        break;
      case Opcode::Jsr: {
        info.destBits = fall_pc;
        next = prog_.blockEntryResolved(inst.target);
        info.actualNextPc = next.valid() ? prog_.pcOf(next) : 0;
        break;
      }
      case Opcode::Ret: {
        const Addr ra = intVal(inst.src1);
        next = prog_.locOf(ra);
        info.actualNextPc = ra;
        break;
      }

      case Opcode::Halt:
        info.isHalt = true;
        next = {};
        info.actualNextPc = 0;
        break;
    }

    if (inst.isCondBranch()) {
        const CodeLoc tgt = prog_.blockEntryResolved(inst.target);
        if (!tgt.valid())
            DRSIM_PANIC("conditional branch to empty tail");
        info.actualNextPc = info.actualTaken ? prog_.pcOf(tgt) : fall_pc;
        next = follow_taken ? tgt : fall;
    }

    if (inst.dest.renamed()) {
        if (inst.dest.cls == RegClass::Int)
            writeInt(inst.dest.index, info.destBits);
        else
            writeFp(inst.dest.index,
                    std::bit_cast<double>(info.destBits));
    }

    loc_ = next;
    return info;
}

StepInfo
Emulator::stepArch()
{
    if (fetchBlocked())
        DRSIM_PANIC("stepArch() while fetch is blocked");
    const Instruction &inst = prog_.instAt(loc_);
    bool taken = false;
    if (inst.isCondBranch()) {
        switch (inst.op) {
          case Opcode::Beq:
            taken = intVal(inst.src1) == 0;
            break;
          case Opcode::Bne:
            taken = intVal(inst.src1) != 0;
            break;
          case Opcode::Fbeq:
            taken = fpVal(inst.src1) == 0.0;
            break;
          case Opcode::Fbne:
            taken = fpVal(inst.src1) != 0.0;
            break;
          default:
            break;
        }
    }
    return step(taken);
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

    const auto regIdx = [](RegId r) {
        return r.valid() ? r.index : std::uint8_t(0xff);
    };
    for (std::int32_t f = 0; f < total; ++f) {
        const Instruction &inst = prog_.instAt(ffLocs_[std::size_t(f)]);
        FFInst d{};
        d.op = inst.op;
        d.destCls = inst.dest.renamed()
                        ? std::uint8_t(inst.dest.cls)
                        : std::uint8_t(0xff);
        d.dest = inst.dest.valid() ? inst.dest.index
                                   : std::uint8_t(0xff);
        d.src1 = regIdx(inst.src1);
        d.src2 = regIdx(inst.src2);
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

    // Registers and memory are written directly — with no live
    // checkpoints the undo log is provably empty, so this loop is
    // pure architectural execution over the predecoded table.
    const auto rdi = [this](std::uint8_t idx) -> std::uint64_t {
        return idx >= std::uint8_t(kNumVirtualRegs) ||
                       idx == std::uint8_t(kZeroReg)
                   ? 0
                   : intRegs_[idx];
    };
    const auto rdf = [this](std::uint8_t idx) -> double {
        return idx >= std::uint8_t(kNumVirtualRegs) ||
                       idx == std::uint8_t(kZeroReg)
                   ? 0.0
                   : fpRegs_[idx];
    };

    std::int32_t cur = loc_.valid() ? ffIndexOf(loc_) : -1;
    std::uint64_t done = 0;
    while (done < n && cur >= 0) {
        const FFInst &d = ffTable_[std::size_t(cur)];
        if (d.op == Opcode::Halt)
            break; // leave the Halt for the detailed run to commit

        std::uint64_t destBits = 0;
        std::int32_t next = d.fall;
        // Integer b-operand: src2 if present, else the immediate.
        const std::uint64_t b = d.src2 != 0xff
                                    ? rdi(d.src2)
                                    : std::uint64_t(d.imm);
        switch (d.op) {
          case Opcode::Add:
            destBits = rdi(d.src1) + b;
            break;
          case Opcode::Sub:
            destBits = rdi(d.src1) - b;
            break;
          case Opcode::And:
            destBits = rdi(d.src1) & b;
            break;
          case Opcode::Or:
            destBits = rdi(d.src1) | b;
            break;
          case Opcode::Xor:
            destBits = rdi(d.src1) ^ b;
            break;
          case Opcode::Sll:
            destBits = rdi(d.src1) << (b & 63);
            break;
          case Opcode::Srl:
            destBits = rdi(d.src1) >> (b & 63);
            break;
          case Opcode::Cmplt:
            destBits = std::int64_t(rdi(d.src1)) < std::int64_t(b);
            break;
          case Opcode::Cmple:
            destBits = std::int64_t(rdi(d.src1)) <= std::int64_t(b);
            break;
          case Opcode::Cmpeq:
            destBits = rdi(d.src1) == b;
            break;
          case Opcode::Mul:
            destBits = rdi(d.src1) * b;
            break;

          case Opcode::Fadd:
            destBits = std::bit_cast<std::uint64_t>(
                rdf(d.src1) + rdf(d.src2));
            break;
          case Opcode::Fsub:
            destBits = std::bit_cast<std::uint64_t>(
                rdf(d.src1) - rdf(d.src2));
            break;
          case Opcode::Fmul:
            destBits = std::bit_cast<std::uint64_t>(
                rdf(d.src1) * rdf(d.src2));
            break;
          case Opcode::Fcmplt:
            destBits = std::bit_cast<std::uint64_t>(
                rdf(d.src1) < rdf(d.src2) ? 1.0 : 0.0);
            break;
          case Opcode::Itof:
            destBits = std::bit_cast<std::uint64_t>(
                double(std::int64_t(rdi(d.src1))));
            break;
          case Opcode::Ftoi: {
            const double v = rdf(d.src1);
            destBits = std::isfinite(v) && std::abs(v) < 0x1.0p62
                           ? std::uint64_t(std::int64_t(v))
                           : 0;
            break;
          }
          case Opcode::Fdivs: {
            const float bb = float(rdf(d.src2));
            const float a = float(rdf(d.src1));
            destBits = std::bit_cast<std::uint64_t>(
                bb == 0.0f ? 0.0 : double(a / bb));
            break;
          }
          case Opcode::Fdivd: {
            const double bb = rdf(d.src2);
            destBits = std::bit_cast<std::uint64_t>(
                bb == 0.0 ? 0.0 : rdf(d.src1) / bb);
            break;
          }
          case Opcode::Fsqrt: {
            const double a = rdf(d.src1);
            destBits = std::bit_cast<std::uint64_t>(
                a < 0.0 ? 0.0 : std::sqrt(a));
            break;
          }

          case Opcode::Ldq:
          case Opcode::Ldt:
            destBits = memWord(
                canonical(rdi(d.src1) + std::uint64_t(d.imm)));
            break;
          case Opcode::Stq:
            rawWriteMem(
                canonical(rdi(d.src1) + std::uint64_t(d.imm)),
                rdi(d.src2));
            break;
          case Opcode::Stt:
            rawWriteMem(
                canonical(rdi(d.src1) + std::uint64_t(d.imm)),
                std::bit_cast<std::uint64_t>(rdf(d.src2)));
            break;

          case Opcode::Beq:
            if (rdi(d.src1) == 0)
                next = d.target;
            break;
          case Opcode::Bne:
            if (rdi(d.src1) != 0)
                next = d.target;
            break;
          case Opcode::Fbeq:
            if (rdf(d.src1) == 0.0)
                next = d.target;
            break;
          case Opcode::Fbne:
            if (rdf(d.src1) != 0.0)
                next = d.target;
            break;

          case Opcode::Br:
            next = d.target;
            break;
          case Opcode::Jsr:
            destBits = d.fallPc;
            next = d.target;
            break;
          case Opcode::Ret: {
            const CodeLoc tgt = prog_.locOf(rdi(d.src1));
            next = tgt.valid() ? ffIndexOf(tgt) : -1;
            break;
          }

          case Opcode::Halt:
            break; // unreachable (checked above)
        }
        if ((d.op == Opcode::Beq || d.op == Opcode::Bne ||
             d.op == Opcode::Fbeq || d.op == Opcode::Fbne) &&
            d.target == -1) {
            DRSIM_PANIC("conditional branch to empty tail");
        }

        if (ffObs_ != nullptr) {
            // Destination writes have not happened yet, so the
            // recomputed effective address sees the same operand
            // values the execution above used.
            const Addr pc = prog_.pcOf(ffLocs_[std::size_t(cur)]);
            ffObs_->ffFetch(pc);
            switch (d.op) {
              case Opcode::Ldq:
              case Opcode::Ldt:
                ffObs_->ffMem(
                    canonical(rdi(d.src1) + std::uint64_t(d.imm)),
                    false);
                break;
              case Opcode::Stq:
              case Opcode::Stt:
                ffObs_->ffMem(
                    canonical(rdi(d.src1) + std::uint64_t(d.imm)),
                    true);
                break;
              case Opcode::Beq:
              case Opcode::Bne:
              case Opcode::Fbeq:
              case Opcode::Fbne:
                ffObs_->ffBranch(pc, next == d.target);
                break;
              default:
                break;
            }
        }

        if (d.destCls == std::uint8_t(RegClass::Int)) {
            if (d.dest != std::uint8_t(kZeroReg))
                intRegs_[d.dest] = destBits;
        } else if (d.destCls == std::uint8_t(RegClass::Fp)) {
            if (d.dest != std::uint8_t(kZeroReg))
                fpRegs_[d.dest] = std::bit_cast<double>(destBits);
        }

        ++steps_;
        ++done;
        cur = next;
    }

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

namespace {

std::uint64_t
hashArchPieces(const std::array<std::uint64_t, kNumVirtualRegs> &ints,
               const std::array<double, kNumVirtualRegs> &fps,
               const std::vector<std::uint64_t> &data,
               const std::unordered_map<Addr, std::uint64_t> &mem)
{
    std::uint64_t h = 0x12345678;
    for (int i = 0; i < kNumVirtualRegs; ++i) {
        h ^= mix64(ints[std::size_t(i)] + std::uint64_t(i) * 0x9e37);
        h ^= mix64(
            std::bit_cast<std::uint64_t>(fps[std::size_t(i)]) +
            std::uint64_t(i) * 0xabcd);
    }
    // Memory digest must be order-independent (dense segment plus
    // unordered_map overflow).  Zero words are skipped: unmapped
    // memory reads as zero, so a zero-valued entry (e.g. left by a
    // rolled-back wrong-path store to a fresh address) is
    // semantically absent.
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (data[i] != 0) {
            const Addr addr = kDataBase + Addr(i) * 8;
            h ^= mix64(addr * 0x9e3779b97f4a7c15ull ^ mix64(data[i]));
        }
    }
    for (const auto &[addr, word] : mem) {
        if (word != 0)
            h ^= mix64(addr * 0x9e3779b97f4a7c15ull ^ mix64(word));
    }
    return h;
}

} // namespace

std::uint64_t
Emulator::stateHash() const
{
    return hashArchPieces(intRegs_, fpRegs_, data_, mem_);
}

std::uint64_t
archStateHash(const EmuArchState &state)
{
    return hashArchPieces(state.intRegs, state.fpRegs, state.data,
                          state.mem);
}

} // namespace drsim
