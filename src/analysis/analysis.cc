#include "analysis/analysis.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <sstream>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "common/json.hh"
#include "isa/instruction.hh"

namespace drsim {
namespace analysis {

namespace {

const char *
regName(RegClass cls, int index)
{
    static thread_local char buf[8];
    std::snprintf(buf, sizeof(buf), "%s%d",
                  cls == RegClass::Int ? "r" : "f", index);
    return buf;
}

Finding
makeFinding(const char *rule, Severity sev, const Program &prog,
            int block, int offset, std::string message)
{
    Finding f;
    f.rule = rule;
    f.severity = sev;
    f.block = block;
    f.offset = offset;
    if (block >= 0 && offset >= 0)
        f.pc = prog.pcOf({block, offset});
    f.message = std::move(message);
    return f;
}

// ------------------------------------------------------------------
// Pass 2: reachability findings.
// ------------------------------------------------------------------

void
reachabilityFindings(const ProgramCfg &cfg, std::vector<Finding> &out)
{
    const Program &prog = cfg.program();
    for (int b = 0; b < int(cfg.nodes().size()); ++b) {
        const auto &node = cfg.node(b);
        if (prog.block(b).insts.empty() || node.reachable)
            continue;
        out.push_back(makeFinding(
            rules::kUnreachable, Severity::Warning, prog, b, 0,
            "block is unreachable from the program entry"));
    }

    // Reachable blocks that can never reach Halt are a statically
    // guaranteed infinite loop; report the component once.
    int first = -1, count = 0;
    for (int b = 0; b < int(cfg.nodes().size()); ++b) {
        const auto &node = cfg.node(b);
        if (prog.block(b).insts.empty() || !node.reachable ||
            node.canExit) {
            continue;
        }
        if (first < 0)
            first = b;
        ++count;
    }
    if (first >= 0) {
        std::ostringstream os;
        os << "no path from this block reaches Halt (statically "
              "guaranteed infinite loop";
        if (count > 1)
            os << "; " << count << " blocks affected";
        os << ")";
        out.push_back(makeFinding(rules::kNoHalt, Severity::Error,
                                  prog, first, 0, os.str()));
    }
}

// ------------------------------------------------------------------
// Pass 3: definite-assignment (uninitialized reads) and liveness
// (dead writes).
// ------------------------------------------------------------------

void
defUseFindings(const ProgramCfg &cfg, const Options &opts,
               std::vector<Finding> &out)
{
    const Program &prog = cfg.program();

    // The hardwired zero registers are never renamed, so no check
    // below looks at them.
    RegSet entry_set = 0;
    for (const RegId r : opts.abiInitializedRegs)
        if (r.renamed())
            entry_set |= regSetBit(r);

    // Forward must-analysis: registers definitely written on *every*
    // path from entry to block start.  Join = intersection.
    std::vector<RegSet> in(cfg.nodes().size(), ~RegSet{0});
    in[std::size_t(cfg.entry())] = entry_set;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const int b : cfg.rpo()) {
            RegSet state = in[std::size_t(b)];
            for (const Instruction &inst : prog.block(b).insts)
                state |= writeSet(inst);
            for (const int s : cfg.node(b).succs) {
                const RegSet merged = in[std::size_t(s)] & state;
                if (merged != in[std::size_t(s)]) {
                    in[std::size_t(s)] = merged;
                    changed = true;
                }
            }
        }
    }

    // Check walk: first uninitialized read of each register, src1
    // before src2.
    RegSet reported = 0;
    for (const int b : cfg.rpo()) {
        RegSet state = in[std::size_t(b)];
        const auto &insts = prog.block(b).insts;
        for (int i = 0; i < int(insts.size()); ++i) {
            const Instruction &inst = insts[std::size_t(i)];
            for (const RegId r : {inst.src1, inst.src2}) {
                if (!r.renamed() || (regSetBit(r) & (state | reported)))
                    continue;
                reported |= regSetBit(r);
                std::ostringstream os;
                os << "read of " << regName(r.cls, r.index)
                   << " before any write reaches it (first of "
                      "possibly several; the loader zero-fills "
                      "registers, so this reads 0)";
                out.push_back(makeFinding(rules::kUninitRead,
                                          Severity::Error, prog, b, i,
                                          os.str()));
            }
            state |= writeSet(inst);
        }
    }

    // Dead-write walk: each block backward from its live-out set.
    const LivenessResult live = computeLiveness(cfg);
    for (const int b : cfg.rpo()) {
        RegSet cur = live.liveOut[std::size_t(b)];
        const auto &insts = prog.block(b).insts;
        for (int i = int(insts.size()) - 1; i >= 0; --i) {
            const Instruction &inst = insts[std::size_t(i)];
            const RegSet w = writeSet(inst);
            if (w & ~cur) {
                std::ostringstream os;
                os << "value written to "
                   << regName(inst.dest.cls, inst.dest.index)
                   << " is never read on any path";
                out.push_back(makeFinding(rules::kDeadWrite,
                                          Severity::Warning, prog, b, i,
                                          os.str()));
            }
            cur = (cur & ~w) | readSet(inst);
        }
    }
}

// ------------------------------------------------------------------
// Pass 4: integer value-range analysis + static memory bounds.
// ------------------------------------------------------------------

/** A signed-64 interval; `known == false` is Top (anything). */
struct Interval
{
    bool known = false;
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    static Interval top() { return {}; }
    static Interval constant(std::int64_t v) { return {true, v, v}; }
    static Interval
    range(std::int64_t lo, std::int64_t hi)
    {
        return {true, lo, hi};
    }
    bool isConstant() const { return known && lo == hi; }
    bool
    operator==(const Interval &o) const
    {
        return known == o.known &&
               (!known || (lo == o.lo && hi == o.hi));
    }
};

Interval
hull(const Interval &a, const Interval &b)
{
    if (!a.known || !b.known)
        return Interval::top();
    return Interval::range(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
}

/** Checked arithmetic: Top on 64-bit overflow. */
Interval
addIv(const Interval &a, const Interval &b)
{
    if (!a.known || !b.known)
        return Interval::top();
    const __int128 lo = __int128(a.lo) + b.lo;
    const __int128 hi = __int128(a.hi) + b.hi;
    if (lo < std::numeric_limits<std::int64_t>::min() ||
        hi > std::numeric_limits<std::int64_t>::max()) {
        return Interval::top();
    }
    return Interval::range(std::int64_t(lo), std::int64_t(hi));
}

Interval
subIv(const Interval &a, const Interval &b)
{
    if (!b.known)
        return Interval::top();
    return addIv(a, Interval::range(-b.hi, -b.lo));
}

/** Per-block abstract state over the 32 integer registers. */
struct IntState
{
    std::array<Interval, kNumVirtualRegs> regs;
    bool
    operator==(const IntState &o) const
    {
        return regs == o.regs;
    }
};

Interval
readIv(const IntState &st, RegId r)
{
    if (!r.valid() || r.cls != RegClass::Int)
        return Interval::top();
    if (r.index == kZeroReg)
        return Interval::constant(0);
    return st.regs[r.index];
}

/** Abstract transfer of one instruction over the integer state. */
void
transfer(const Instruction &inst, IntState &st)
{
    const RegId d = inst.dest;
    const bool int_dest =
        d.renamed() && d.cls == RegClass::Int;
    if (!int_dest)
        return;

    const Interval a = readIv(st, inst.src1);
    const Interval b = inst.src2.valid()
                           ? readIv(st, inst.src2)
                           : Interval::constant(inst.imm);
    Interval r = Interval::top();
    switch (inst.op) {
      case Opcode::Add:
        r = addIv(a, b);
        break;
      case Opcode::Sub:
        r = subIv(a, b);
        break;
      case Opcode::And:
        // x & m with m >= 0 lands in [0, m] for any x.
        if (b.known && b.lo >= 0)
            r = Interval::range(0, b.hi);
        else if (a.known && a.lo >= 0)
            r = Interval::range(0, a.hi);
        break;
      case Opcode::Or:
      case Opcode::Xor:
        if (a.isConstant() && b.isConstant()) {
            r = Interval::constant(inst.op == Opcode::Or
                                       ? (a.lo | b.lo)
                                       : (a.lo ^ b.lo));
        }
        break;
      case Opcode::Sll:
        if (a.known && b.isConstant() && a.lo >= 0 && b.lo >= 0 &&
            b.lo < 63 &&
            a.hi <= (std::numeric_limits<std::int64_t>::max() >>
                     b.lo)) {
            r = Interval::range(a.lo << b.lo, a.hi << b.lo);
        }
        break;
      case Opcode::Srl:
        if (a.known && b.isConstant() && a.lo >= 0 && b.lo >= 0 &&
            b.lo < 64) {
            r = Interval::range(a.lo >> b.lo, a.hi >> b.lo);
        }
        break;
      case Opcode::Cmplt:
      case Opcode::Cmple:
      case Opcode::Cmpeq:
        r = Interval::range(0, 1);
        break;
      case Opcode::Mul:
        if (a.isConstant() && b.isConstant()) {
            const __int128 p = __int128(a.lo) * b.lo;
            if (p >= std::numeric_limits<std::int64_t>::min() &&
                p <= std::numeric_limits<std::int64_t>::max()) {
                r = Interval::constant(std::int64_t(p));
            }
        }
        break;
      default:
        // Loads, Ftoi, Jsr link values: unknown.
        break;
    }
    st.regs[d.index] = r;
}

void
memoryFindings(const ProgramCfg &cfg, std::vector<Finding> &out)
{
    const Program &prog = cfg.program();
    const std::size_t n = cfg.nodes().size();
    const Addr data_base = prog.dataBase();
    const Addr data_limit = prog.dataLimit();

    // Fixpoint over block-entry states with per-block widening: a
    // register whose interval keeps growing at a join collapses to
    // Top after two rounds, so termination is immediate in practice.
    std::vector<IntState> in(n);
    std::vector<std::uint8_t> visited(n, 0), widen_count(n, 0);
    if (cfg.entry() < 0)
        return;
    // The loader zero-fills every register.
    for (auto &iv : in[std::size_t(cfg.entry())].regs)
        iv = Interval::constant(0);
    visited[std::size_t(cfg.entry())] = 1;

    bool changed = true;
    int rounds = 0;
    while (changed && ++rounds < 64) {
        changed = false;
        for (const int b : cfg.rpo()) {
            if (!visited[std::size_t(b)])
                continue;
            IntState state = in[std::size_t(b)];
            for (const Instruction &inst : prog.block(b).insts)
                transfer(inst, state);
            for (const int s : cfg.node(b).succs) {
                auto &target = in[std::size_t(s)];
                if (!visited[std::size_t(s)]) {
                    visited[std::size_t(s)] = 1;
                    target = state;
                    changed = true;
                    continue;
                }
                IntState merged;
                for (int i = 0; i < kNumVirtualRegs; ++i) {
                    merged.regs[std::size_t(i)] =
                        hull(target.regs[std::size_t(i)],
                             state.regs[std::size_t(i)]);
                }
                if (!(merged == target)) {
                    if (widen_count[std::size_t(s)] >= 2) {
                        // Widen: growing registers go straight to Top.
                        for (int i = 0; i < kNumVirtualRegs; ++i) {
                            if (!(merged.regs[std::size_t(i)] ==
                                  target.regs[std::size_t(i)])) {
                                merged.regs[std::size_t(i)] =
                                    Interval::top();
                            }
                        }
                    } else {
                        ++widen_count[std::size_t(s)];
                    }
                    if (!(merged == target)) {
                        target = merged;
                        changed = true;
                    }
                }
            }
        }
    }

    // Check walk: bound every statically resolvable effective address.
    for (const int b : cfg.rpo()) {
        if (!visited[std::size_t(b)])
            continue;
        IntState state = in[std::size_t(b)];
        const auto &insts = prog.block(b).insts;
        for (int i = 0; i < int(insts.size()); ++i) {
            const Instruction &inst = insts[std::size_t(i)];
            if (inst.isMem()) {
                const Interval base = readIv(state, inst.src1);
                const Interval ea =
                    addIv(base, Interval::constant(inst.imm));
                if (ea.known) {
                    const bool oob =
                        ea.lo < std::int64_t(data_base) ||
                        __int128(ea.hi) + 8 >
                            __int128(data_limit);
                    if (oob) {
                        std::ostringstream os;
                        os << (inst.isStore() ? "store to"
                                              : "load from")
                           << " statically resolvable address";
                        if (ea.isConstant())
                            os << " 0x" << std::hex << ea.lo
                               << std::dec;
                        else
                            os << " range [0x" << std::hex << ea.lo
                               << ", 0x" << ea.hi << std::dec << "]";
                        os << " outside the data image [0x"
                           << std::hex << data_base << ", 0x"
                           << data_limit << std::dec << ")";
                        out.push_back(makeFinding(
                            rules::kOobAccess, Severity::Error, prog,
                            b, i, os.str()));
                    } else if (ea.isConstant() && (ea.lo & 7) != 0) {
                        std::ostringstream os;
                        os << "effective address 0x" << std::hex
                           << ea.lo << std::dec
                           << " is not 8-byte aligned (the emulator "
                              "silently rounds it down)";
                        out.push_back(makeFinding(
                            rules::kMisaligned, Severity::Warning,
                            prog, b, i, os.str()));
                    }
                }
            }
            transfer(inst, state);
        }
    }
}

// ------------------------------------------------------------------
// Pass 5: local lints.
// ------------------------------------------------------------------

void
lintFindings(const ProgramCfg &cfg, std::vector<Finding> &out)
{
    const Program &prog = cfg.program();
    for (int b = 0; b < int(cfg.nodes().size()); ++b) {
        const auto &insts = prog.block(b).insts;
        for (int i = 0; i < int(insts.size()); ++i) {
            const Instruction &inst = insts[std::size_t(i)];
            if (inst.dest.valid() && inst.dest.isZero()) {
                std::ostringstream os;
                os << "write to the hardwired zero register "
                   << regName(inst.dest.cls, inst.dest.index)
                   << " is discarded";
                out.push_back(makeFinding(rules::kZeroRegWrite,
                                          Severity::Warning, prog, b,
                                          i, os.str()));
            }
            if (inst.isControl() && inst.target >= 0) {
                const CodeLoc t =
                    prog.blockEntryResolved(inst.target);
                if (t.valid() && t.block == b && t.offset == i) {
                    out.push_back(makeFinding(
                        rules::kSelfBranch, Severity::Warning, prog,
                        b, i,
                        "branch targets itself (single-instruction "
                        "spin loop)"));
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Pass 6: instruction-mix cross-check.
// ------------------------------------------------------------------

void
mixFindings(const ProgramCfg &cfg, const Options &opts,
            std::vector<Finding> &out)
{
    const MixTarget *target = mixTargetFor(cfg.program().name());
    if (target == nullptr)
        return;
    const MixEstimate est = estimateMix(cfg.program());
    const struct
    {
        const char *name;
        double got, want;
    } cats[] = {
        {"load", est.loadPct, target->loadPct},
        {"store", est.storePct, target->storePct},
        {"cond-branch", est.condBranchPct, target->condBranchPct},
        {"fp", est.fpPct, target->fpPct},
    };
    for (const auto &c : cats) {
        const double drift = c.got - c.want;
        if (drift > opts.mixTolerancePct ||
            drift < -opts.mixTolerancePct) {
            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "static %s mix %.1f%% drifted from the "
                          "kernel's Table-1 target %.1f%% "
                          "(tolerance +/-%.1f points)",
                          c.name, c.got, c.want,
                          opts.mixTolerancePct);
            out.push_back(makeFinding(rules::kMixDrift,
                                      Severity::Error,
                                      cfg.program(), -1, -1, buf));
        }
    }
}

} // namespace

// ------------------------------------------------------------------
// Public API.
// ------------------------------------------------------------------

const char *
severityName(Severity sev)
{
    return sev == Severity::Error ? "error" : "warning";
}

std::size_t
Report::count(Severity sev) const
{
    std::size_t n = 0;
    for (const Finding &f : findings)
        n += f.severity == sev ? 1 : 0;
    return n;
}

std::string
Report::summary() const
{
    const std::size_t errors = count(Severity::Error);
    const std::size_t warnings = count(Severity::Warning);
    std::ostringstream os;
    os << errors << (errors == 1 ? " error, " : " errors, ")
       << warnings << (warnings == 1 ? " warning" : " warnings");
    return os.str();
}

Report
analyzeProgram(const Program &program, const Options &opts)
{
    Report report;
    report.program = program.name();

    const ProgramCfg cfg(program);
    report.findings = cfg.structuralFindings();
    if (cfg.valid()) {
        reachabilityFindings(cfg, report.findings);
        defUseFindings(cfg, opts, report.findings);
        memoryFindings(cfg, report.findings);
        lintFindings(cfg, report.findings);
        if (opts.checkMix)
            mixFindings(cfg, opts, report.findings);
    }

    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.block != b.block)
                             return a.block < b.block;
                         if (a.offset != b.offset)
                             return a.offset < b.offset;
                         return a.rule < b.rule;
                     });
    return report;
}

std::string
formatFinding(const Finding &f)
{
    std::ostringstream os;
    os << severityName(f.severity) << "[" << f.rule << "]";
    if (f.block >= 0) {
        os << " block " << f.block;
        if (f.offset >= 0)
            os << " inst " << f.offset << " (pc 0x" << std::hex
               << f.pc << std::dec << ")";
    }
    os << ": " << f.message;
    return os.str();
}

void
writeReport(json::Writer &w, const Report &report)
{
    w.beginObject();
    w.key("schema").value("drsim-lint-v1");
    w.key("program").value(report.program);
    w.key("errors").value(report.count(Severity::Error));
    w.key("warnings").value(report.count(Severity::Warning));
    w.key("findings").beginArray();
    for (const Finding &f : report.findings) {
        w.beginObject();
        w.key("rule").value(f.rule);
        w.key("severity").value(severityName(f.severity));
        w.key("block").value(f.block);
        w.key("offset").value(f.offset);
        w.key("pc").value(f.pc);
        w.key("message").value(f.message);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
reportToJson(const Report &report)
{
    json::Writer w;
    writeReport(w, report);
    return w.str();
}

} // namespace analysis
} // namespace drsim
