#include "workloads/builder.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace drsim {

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog_.name_ = std::move(name);
}

ProgramBuilder::Label
ProgramBuilder::newLabel()
{
    labelBlock_.push_back(-1);
    return int(labelBlock_.size()) - 1;
}

void
ProgramBuilder::bind(Label label)
{
    if (label < 0 || label >= int(labelBlock_.size())) {
        fatal("program '", prog_.name_, "': bind of unknown label ",
              label, " (labels come from newLabel())");
    }
    if (labelBlock_[label] != -1) {
        fatal("program '", prog_.name_, "': label ", label,
              " bound twice");
    }
    // The next emitted instruction starts a fresh block; bind the label
    // to that block now by opening it eagerly.  Consecutive binds with
    // no instruction in between share one block.
    if (!pendingLabelBind_ || prog_.blocks_.empty() ||
        !prog_.blocks_.back().insts.empty()) {
        prog_.blocks_.emplace_back();
    }
    labelBlock_[label] = int(prog_.blocks_.size()) - 1;
    pendingLabelBind_ = true;
    lastWasControl_ = false;
}

Addr
ProgramBuilder::allocWords(std::size_t nwords)
{
    const Addr base = dataBrk_;
    dataBrk_ += Addr(nwords) * 8;
    // Keep allocations cache-line separated to make kernel working-set
    // sizes predictable.
    dataBrk_ = (dataBrk_ + 31) & ~Addr{31};
    return base;
}

void
ProgramBuilder::initWord(Addr addr, std::uint64_t value)
{
    prog_.initialWords_.push_back({addr & ~Addr{7}, value});
}

void
ProgramBuilder::initDouble(Addr addr, double value)
{
    initWord(addr, std::bit_cast<std::uint64_t>(value));
}

BasicBlock &
ProgramBuilder::current()
{
    if (prog_.blocks_.empty() || (lastWasControl_ && !pendingLabelBind_))
        prog_.blocks_.emplace_back();
    pendingLabelBind_ = false;
    lastWasControl_ = false;
    return prog_.blocks_.back();
}

void
ProgramBuilder::emit(Instruction inst)
{
    if (built_) {
        fatal("program '", prog_.name_,
              "': emit after build(); the builder is single-use");
    }
    current().insts.push_back(inst);
    if (inst.isControl() || inst.isHalt())
        lastWasControl_ = true;
}

void
ProgramBuilder::emitRRR(Opcode op, RegId d, RegId a, RegId b)
{
    Instruction inst;
    inst.op = op;
    inst.dest = d;
    inst.src1 = a;
    inst.src2 = b;
    emit(inst);
}

void
ProgramBuilder::emitRRI(Opcode op, RegId d, RegId a, std::int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.dest = d;
    inst.src1 = a;
    inst.imm = imm;
    emit(inst);
}

void
ProgramBuilder::ldq(RegId d, RegId base, std::int64_t off)
{
    if (d.cls != RegClass::Int || base.cls != RegClass::Int)
        DRSIM_PANIC("ldq operands must be integer registers");
    Instruction inst;
    inst.op = Opcode::Ldq;
    inst.dest = d;
    inst.src1 = base;
    inst.imm = off;
    emit(inst);
}

void
ProgramBuilder::ldt(RegId d, RegId base, std::int64_t off)
{
    if (d.cls != RegClass::Fp || base.cls != RegClass::Int)
        DRSIM_PANIC("ldt wants fp dest, int base");
    Instruction inst;
    inst.op = Opcode::Ldt;
    inst.dest = d;
    inst.src1 = base;
    inst.imm = off;
    emit(inst);
}

void
ProgramBuilder::stq(RegId value, RegId base, std::int64_t off)
{
    if (value.cls != RegClass::Int || base.cls != RegClass::Int)
        DRSIM_PANIC("stq operands must be integer registers");
    Instruction inst;
    inst.op = Opcode::Stq;
    inst.src1 = base;
    inst.src2 = value;
    inst.imm = off;
    emit(inst);
}

void
ProgramBuilder::stt(RegId value, RegId base, std::int64_t off)
{
    if (value.cls != RegClass::Fp || base.cls != RegClass::Int)
        DRSIM_PANIC("stt wants fp value, int base");
    Instruction inst;
    inst.op = Opcode::Stt;
    inst.src1 = base;
    inst.src2 = value;
    inst.imm = off;
    emit(inst);
}

namespace {

Instruction
branchInst(Opcode op, RegId c, int label)
{
    Instruction inst;
    inst.op = op;
    inst.src1 = c;
    inst.target = label; // label id; patched to a block index in build()
    return inst;
}

} // namespace

void
ProgramBuilder::beq(RegId c, Label target)
{
    if (c.cls != RegClass::Int)
        DRSIM_PANIC("beq condition must be an integer register");
    emit(branchInst(Opcode::Beq, c, target));
}

void
ProgramBuilder::bne(RegId c, Label target)
{
    if (c.cls != RegClass::Int)
        DRSIM_PANIC("bne condition must be an integer register");
    emit(branchInst(Opcode::Bne, c, target));
}

void
ProgramBuilder::fbeq(RegId c, Label target)
{
    if (c.cls != RegClass::Fp)
        DRSIM_PANIC("fbeq condition must be an fp register");
    emit(branchInst(Opcode::Fbeq, c, target));
}

void
ProgramBuilder::fbne(RegId c, Label target)
{
    if (c.cls != RegClass::Fp)
        DRSIM_PANIC("fbne condition must be an fp register");
    emit(branchInst(Opcode::Fbne, c, target));
}

void
ProgramBuilder::br(Label target)
{
    emit(branchInst(Opcode::Br, noReg(), target));
}

void
ProgramBuilder::jsr(RegId link, Label target)
{
    if (link.cls != RegClass::Int)
        DRSIM_PANIC("jsr link must be an integer register");
    Instruction inst;
    inst.op = Opcode::Jsr;
    inst.dest = link;
    inst.target = target;
    emit(inst);
}

void
ProgramBuilder::ret(RegId addrReg)
{
    if (addrReg.cls != RegClass::Int)
        DRSIM_PANIC("ret address must be an integer register");
    Instruction inst;
    inst.op = Opcode::Ret;
    inst.src1 = addrReg;
    emit(inst);
}

void
ProgramBuilder::halt()
{
    Instruction inst;
    inst.op = Opcode::Halt;
    emit(inst);
}

Program
ProgramBuilder::build()
{
    if (built_) {
        fatal("program '", prog_.name_,
              "': build() called twice; the builder is single-use");
    }
    built_ = true;
    // Patch label ids into block indices.
    for (auto &bb : prog_.blocks_) {
        for (auto &inst : bb.insts) {
            if (inst.target < 0)
                continue;
            if (inst.target >= int(labelBlock_.size())) {
                fatal("program '", prog_.name_,
                      "': branch to unknown label ", inst.target,
                      " (only ", labelBlock_.size(),
                      " labels were created)");
            }
            const int block = labelBlock_[inst.target];
            if (block < 0) {
                fatal("program '", prog_.name_,
                      "': branch to unbound label ", inst.target,
                      " (newLabel() was never bind()-ed)");
            }
            inst.target = block;
        }
    }
    // The data image, written in any order, becomes one sorted run:
    // a stable sort keeps repeated writes of a word in write order,
    // and the dedupe keeps the last of each run.  Kernels mostly
    // write ascending, so the sort is usually skipped.
    std::vector<DataWord> &words = prog_.initialWords_;
    const auto byAddr = [](const DataWord &a, const DataWord &b) {
        return a.addr < b.addr;
    };
    if (!std::is_sorted(words.begin(), words.end(), byAddr))
        std::stable_sort(words.begin(), words.end(), byAddr);
    std::size_t kept = 0;
    for (const DataWord &w : words) {
        if (kept > 0 && words[kept - 1].addr == w.addr)
            words[kept - 1].value = w.value;
        else
            words[kept++] = w;
    }
    words.resize(kept);
    words.shrink_to_fit();
    // Record the data-segment extent for static memory-bounds checks:
    // the bump allocator's brk, widened over any directly initialized
    // words outside it.
    prog_.dataLimit_ =
        words.empty() ? dataBrk_ : std::max(dataBrk_, words.back().addr + 8);
    prog_.finalize();
    return std::move(prog_);
}

} // namespace drsim
