/**
 * @file
 * Unit tests for the static dataflow oracle (src/analysis/dataflow,
 * src/analysis/bounds) and the runtime cross-check gates: liveness
 * order-independence, dominators, natural-loop discovery on the CFG
 * edge cases (irreducible regions, unreachable blocks, single-block
 * self-loops), recurrence/critical-path arithmetic on programs with
 * known answers, finite bounds for every shipped kernel, and the
 * gate's panic/warn/off behavior.
 */

#include <cstdlib>
#include <gtest/gtest.h>

#include "analysis/bounds.hh"
#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"
#include "workloads/classic.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

using analysis::BoundsReport;
using analysis::IterOrder;
using analysis::LivenessResult;
using analysis::MachineLimits;
using analysis::NaturalLoop;
using analysis::ProgramCfg;

/** Scoped environment override (restores the prior value). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        setenv(name, value, 1);
    }
    ~EnvGuard()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_;
    std::string old_;
};

Program
straightChain()
{
    ProgramBuilder b("chain");
    b.li(intReg(1), 3);
    b.addi(intReg(2), intReg(1), 1);
    b.mul(intReg(3), intReg(2), intReg(2));
    b.addi(intReg(4), intReg(3), 1);
    b.halt();
    return b.build();
}

Program
countedLoop(bool mulRecurrence)
{
    ProgramBuilder b(mulRecurrence ? "mul-loop" : "add-loop");
    b.li(intReg(1), 100);
    b.li(intReg(2), 1);
    const auto top = b.here();
    if (mulRecurrence)
        b.mul(intReg(2), intReg(2), intReg(2));
    else
        b.addi(intReg(2), intReg(2), 1);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), top);
    b.halt();
    return b.build();
}

// ------------------------------------------------------------ liveness

TEST(Dataflow, LivenessFixpointIsIterationOrderIndependent)
{
    // The property must hold on every shipped program, not just on
    // crafted ones: sweep the nine-kernel suite, the classic
    // mini-suite, and the crafted loops.
    std::vector<Program> programs;
    for (auto &w : buildSpec92Suite(1))
        programs.push_back(std::move(w.program));
    for (auto &[name, prog] : buildClassicSuite())
        programs.push_back(std::move(prog));
    programs.push_back(countedLoop(false));
    programs.push_back(straightChain());

    for (const Program &prog : programs) {
        const ProgramCfg cfg(prog);
        ASSERT_TRUE(cfg.valid()) << prog.name();
        const LivenessResult fwd =
            analysis::computeLiveness(cfg, IterOrder::Forward);
        const LivenessResult rev =
            analysis::computeLiveness(cfg, IterOrder::Reversed);
        EXPECT_EQ(fwd.liveIn, rev.liveIn) << prog.name();
        EXPECT_EQ(fwd.liveOut, rev.liveOut) << prog.name();
        EXPECT_GE(fwd.rounds, 1);
    }
}

TEST(Dataflow, MaxLiveCountsSimultaneousValues)
{
    ProgramBuilder b("maxlive");
    b.li(intReg(1), 1);
    b.li(intReg(2), 2);
    b.li(intReg(3), 3);                         // r1,r2,r3 live here
    b.add(intReg(4), intReg(1), intReg(2));     // r3,r4 live after
    b.add(intReg(5), intReg(4), intReg(3));
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    const LivenessResult live = analysis::computeLiveness(cfg);
    const analysis::MaxLiveResult ml =
        analysis::computeMaxLive(cfg, live);
    EXPECT_EQ(ml.perClass[int(RegClass::Int)], 3);
    EXPECT_EQ(ml.perClass[int(RegClass::Fp)], 0);
    EXPECT_EQ(ml.block[int(RegClass::Int)], 0);
}

TEST(Dataflow, UnreachableBlocksDoNotFeedLiveness)
{
    // The dead block reads r8 (never written anywhere); its uses
    // must not leak into the reachable fixpoint.
    ProgramBuilder b("unreachable");
    const auto skip = b.newLabel();
    b.li(intReg(1), 1);
    b.br(skip);
    b.here(); // dead block
    b.addi(intReg(9), intReg(8), 1);
    b.bind(skip);
    b.addi(intReg(2), intReg(1), 1);
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    ASSERT_TRUE(cfg.valid());
    const LivenessResult live = analysis::computeLiveness(cfg);
    const analysis::RegSet r8 = analysis::regSetBit(intReg(8));
    for (const int blk : cfg.rpo())
        EXPECT_EQ(live.liveIn[std::size_t(blk)] & r8, 0u) << blk;
}

// ----------------------------------------------------------- dominators

TEST(Dataflow, DiamondDominators)
{
    ProgramBuilder b("diamond");
    const auto els = b.newLabel();
    const auto join = b.newLabel();
    b.li(intReg(1), 1);
    b.beq(intReg(1), els);        // block 0
    b.addi(intReg(2), intReg(1), 1);
    b.br(join);                   // then block
    b.bind(els);
    b.addi(intReg(2), intReg(1), 2);
    b.bind(join);
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    const std::vector<int> idom = analysis::computeIdoms(cfg);
    const int entry = cfg.entry();
    ASSERT_EQ(idom[std::size_t(entry)], entry);
    int join_blk = -1;
    for (const int blk : cfg.rpo()) {
        EXPECT_TRUE(analysis::dominates(idom, entry, blk));
        if (cfg.node(blk).preds.size() == 2)
            join_blk = blk;
    }
    ASSERT_GE(join_blk, 0);
    // The join is dominated only by itself and the entry.
    EXPECT_EQ(idom[std::size_t(join_blk)], entry);
    for (const int blk : cfg.rpo()) {
        if (blk != entry && blk != join_blk) {
            EXPECT_FALSE(analysis::dominates(idom, blk, join_blk));
        }
    }
}

// -------------------------------------------------------- natural loops

TEST(Dataflow, SingleBlockSelfLoop)
{
    ProgramBuilder b("selfloop");
    b.li(intReg(1), 10);
    const auto top = b.here();
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), top);
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    const std::vector<int> idom = analysis::computeIdoms(cfg);
    const std::vector<NaturalLoop> loops =
        analysis::findNaturalLoops(cfg, idom);
    ASSERT_EQ(loops.size(), 1u);
    const NaturalLoop &loop = loops[0];
    EXPECT_TRUE(loop.reducible);
    EXPECT_TRUE(loop.innermost);
    EXPECT_EQ(loop.depth, 1);
    EXPECT_EQ(loop.body, std::vector<int>{loop.header});
    EXPECT_EQ(loop.mustBody, std::vector<int>{loop.header});
    EXPECT_EQ(loop.tails, std::vector<int>{loop.header});

    // The r1 -= 1 recurrence: one cycle of latency per iteration.
    const analysis::LoopDepGraph graph =
        analysis::buildLoopDepGraph(cfg, loop);
    ASSERT_EQ(graph.nodes.size(), 2u);
    bool carried = false;
    for (const analysis::DepEdge &e : graph.edges)
        carried = carried || e.distance == 1;
    EXPECT_TRUE(carried);
    EXPECT_NEAR(analysis::maxCycleRatio(graph), 1.0, 0.01);
}

TEST(Dataflow, NestedLoopsReportDepthAndInnermost)
{
    ProgramBuilder b("nested");
    b.li(intReg(1), 10);
    const auto outer = b.here();
    b.li(intReg(2), 10);
    const auto inner = b.here();
    b.addi(intReg(2), intReg(2), -1);
    b.bne(intReg(2), inner);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), outer);
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    const std::vector<NaturalLoop> loops =
        analysis::findNaturalLoops(cfg, analysis::computeIdoms(cfg));
    ASSERT_EQ(loops.size(), 2u);
    int inner_count = 0;
    for (const NaturalLoop &loop : loops) {
        EXPECT_TRUE(loop.reducible);
        if (loop.innermost) {
            ++inner_count;
            EXPECT_EQ(loop.depth, 2);
        } else {
            EXPECT_EQ(loop.depth, 1);
        }
    }
    EXPECT_EQ(inner_count, 1);
}

TEST(Dataflow, IrreducibleLoopIsFlaggedNotGuessed)
{
    // Two-entry cycle A <-> B: the entry branches into B directly,
    // so neither block dominates the other and no natural-loop
    // header exists in the reducible sense.
    ProgramBuilder b("irreducible");
    const auto a = b.newLabel();
    const auto bb = b.newLabel();
    b.li(intReg(1), 3);
    b.bne(intReg(1), bb);        // second entry into the cycle
    b.bind(a);
    b.addi(intReg(2), intReg(1), 1);
    b.bind(bb);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), a);
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    ASSERT_TRUE(cfg.valid());
    const std::vector<NaturalLoop> loops =
        analysis::findNaturalLoops(cfg, analysis::computeIdoms(cfg));
    ASSERT_FALSE(loops.empty());
    bool any_irreducible = false;
    for (const NaturalLoop &loop : loops) {
        if (!loop.reducible) {
            any_irreducible = true;
            EXPECT_TRUE(loop.mustBody.empty());
            EXPECT_TRUE(
                analysis::buildLoopDepGraph(cfg, loop).nodes.empty());
        }
    }
    EXPECT_TRUE(any_irreducible);

    // And the full bounds pipeline degrades gracefully: valid
    // report, bound falls back to the issue width.
    const BoundsReport rep = analysis::computeBounds(
        prog, MachineLimits::forIssueWidth(4));
    EXPECT_TRUE(rep.valid);
    EXPECT_DOUBLE_EQ(rep.ipcBound, 4.0);
}

// ------------------------------------------------- recurrences & paths

TEST(Dataflow, MulRecurrenceDominatesTheCycleRatio)
{
    const Program prog = countedLoop(true);
    const ProgramCfg cfg(prog);
    const std::vector<NaturalLoop> loops =
        analysis::findNaturalLoops(cfg, analysis::computeIdoms(cfg));
    ASSERT_EQ(loops.size(), 1u);
    const analysis::LoopDepGraph graph =
        analysis::buildLoopDepGraph(cfg, loops[0]);
    // r2 = r2 * r2 carries a 6-cycle latency across one iteration.
    EXPECT_NEAR(analysis::maxCycleRatio(graph), 6.0, 0.01);
}

TEST(Dataflow, ConditionalWritersContributeNoRecurrenceEdges)
{
    // The skipped block writes r2 with a 6-cycle multiply; since it
    // does not execute every iteration, the r2 self-dependence must
    // not be treated as a 6-cycle recurrence.
    ProgramBuilder b("condwrite");
    b.li(intReg(1), 10);
    b.li(intReg(2), 1);
    const auto top = b.here();
    const auto skip = b.newLabel();
    b.beq(intReg(1), skip);
    b.mul(intReg(2), intReg(2), intReg(2)); // conditional writer
    b.bind(skip);
    b.addi(intReg(3), intReg(2), 1);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), top);
    b.halt();
    const Program prog = b.build();
    const ProgramCfg cfg(prog);
    const std::vector<NaturalLoop> loops =
        analysis::findNaturalLoops(cfg, analysis::computeIdoms(cfg));
    ASSERT_EQ(loops.size(), 1u);
    const double rec = analysis::maxCycleRatio(
        analysis::buildLoopDepGraph(cfg, loops[0]));
    // Only the r1 counter recurrence remains (1 cycle/iteration).
    EXPECT_LT(rec, 2.0);
    EXPECT_NEAR(rec, 1.0, 0.01);
}

TEST(Dataflow, CriticalPathFollowsTheLatencyChain)
{
    // li(1) -> addi(1) -> mul(6) -> addi(1): 9 cycles end to end.
    EXPECT_DOUBLE_EQ(
        analysis::dataflowCriticalPath(ProgramCfg(straightChain())),
        9.0);
}

TEST(Dataflow, BoundLatencyFloorsLoadsAtOneCycle)
{
    EXPECT_EQ(analysis::boundLatency(Opcode::Ldq), 1);
    EXPECT_EQ(analysis::boundLatency(Opcode::Fdivd), 16);
    EXPECT_EQ(analysis::boundLatency(Opcode::Add), 1);
}

// --------------------------------------------------------------- bounds

TEST(Bounds, MachineLimitsMirrorCoreConfig)
{
    const CoreConfig cfg = [] {
        CoreConfig c;
        c.issueWidth = 8;
        return c;
    }();
    const MachineLimits lim = MachineLimits::forIssueWidth(8);
    EXPECT_EQ(lim.intIssue, cfg.intIssueLimit());
    EXPECT_EQ(lim.fpIssue, cfg.fpIssueLimit());
    EXPECT_EQ(lim.fpDivIssue, cfg.fpDivIssueLimit());
    EXPECT_EQ(lim.memIssue, cfg.memIssueLimit());
    EXPECT_EQ(lim.ctrlIssue, cfg.ctrlIssueLimit());
    EXPECT_EQ(lim.fpDividers, cfg.numFpDividers());
}

TEST(Bounds, EveryKernelHasFiniteBoundsAndJsonRoundTrips)
{
    const MachineLimits lim = MachineLimits::forIssueWidth(4);
    for (const auto &w : buildSpec92Suite(1)) {
        const BoundsReport rep = analysis::computeBounds(w.program, lim);
        ASSERT_TRUE(rep.valid) << w.spec->name;
        EXPECT_GT(rep.ipcBound, 0.0) << w.spec->name;
        EXPECT_LE(rep.ipcBound, 4.0) << w.spec->name;
        EXPECT_GT(rep.steadyIpcBound, 0.0) << w.spec->name;
        EXPECT_GE(rep.maxLive[int(RegClass::Int)], 1) << w.spec->name;
        EXPECT_GT(rep.criticalPathCycles, 0.0) << w.spec->name;
        EXPECT_FALSE(rep.loops.empty()) << w.spec->name;
        EXPECT_GE(rep.minRegsEstimate[0], kNumVirtualRegs);
        EXPECT_GE(rep.minRegsEstimate[1], kNumVirtualRegs);

        // Loop MaxLive can never exceed the whole-program MaxLive.
        for (const analysis::LoopBound &lb : rep.loops) {
            for (int c = 0; c < kNumRegClasses; ++c)
                EXPECT_LE(lb.maxLive[c], rep.maxLive[c]);
        }

        const json::Value v = json::parse(analysis::boundsToJson(rep));
        EXPECT_EQ(v.at("schema").asString(), "drsim-bounds-v1");
        EXPECT_EQ(v.at("program").asString(), w.spec->name);
        EXPECT_EQ(int(v.at("maxLive").at("int").asNumber()),
                  rep.maxLive[0]);
        EXPECT_EQ(v.at("loops").items().size(), rep.loops.size());

        const std::string text = analysis::formatBounds(rep);
        EXPECT_NE(text.find(w.spec->name), std::string::npos);
        EXPECT_NE(text.find("ipc bound"), std::string::npos);
    }
}

TEST(Bounds, JsonDoublesParseBackExactly)
{
    // The report's doubles print in shortest round-trip form, so every
    // one parses back to the identical value (a 6-significant-digit
    // stream format would turn 4.482758... into 4.48276).
    const MachineLimits lim = MachineLimits::forIssueWidth(4);
    for (const auto &w : buildSpec92Suite(1)) {
        const BoundsReport rep = analysis::computeBounds(w.program, lim);
        const json::Value v = json::parse(analysis::boundsToJson(rep));
        const std::string &name = w.spec->name;
        EXPECT_EQ(v.at("ipcBound").asNumber(), rep.ipcBound) << name;
        EXPECT_EQ(v.at("steadyIpcBound").asNumber(), rep.steadyIpcBound)
            << name;
        EXPECT_EQ(v.at("criticalPathCycles").asNumber(),
                  rep.criticalPathCycles)
            << name;
        EXPECT_EQ(v.at("liveRange").at("int").at("mean").asNumber(),
                  rep.liveRange[0].mean)
            << name;
        EXPECT_EQ(v.at("liveRange").at("fp").at("mean").asNumber(),
                  rep.liveRange[1].mean)
            << name;
        const auto &loops = v.at("loops").items();
        ASSERT_EQ(loops.size(), rep.loops.size()) << name;
        for (std::size_t i = 0; i < loops.size(); ++i) {
            const analysis::LoopBound &lb = rep.loops[i];
            EXPECT_EQ(loops[i].at("recII").asNumber(), lb.recII) << name;
            EXPECT_EQ(loops[i].at("resII").asNumber(), lb.resII) << name;
            EXPECT_EQ(loops[i].at("ipcBound").asNumber(), lb.ipcBound)
                << name;
        }
    }
}

TEST(Bounds, DividerBoundLoopIsTighterThanIssueWidth)
{
    // One fdivd per iteration against one unpipelined divider: the
    // recurrence-free resource bound is 16 cycles/iteration.
    ProgramBuilder b("divloop");
    b.li(intReg(1), 10);
    const double val = 2.0;
    const Addr addr = b.allocWords(1);
    b.initDouble(addr, val);
    b.li(intReg(2), std::int64_t(addr));
    b.ldt(fpReg(1), intReg(2), 0);
    const auto top = b.here();
    b.fdivd(fpReg(2), fpReg(1), fpReg(1));
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), top);
    b.halt();
    const BoundsReport rep = analysis::computeBounds(
        b.build(), MachineLimits::forIssueWidth(4));
    ASSERT_TRUE(rep.valid);
    ASSERT_EQ(rep.loops.size(), 1u);
    EXPECT_GE(rep.loops[0].resII, 16.0);
    // 3 body instructions / 16-cycle II.
    EXPECT_NEAR(rep.loops[0].ipcBound, 3.0 / 16.0, 0.01);
    EXPECT_NEAR(rep.steadyIpcBound, 3.0 / 16.0, 0.01);
}

TEST(Bounds, InvalidCfgYieldsInvalidReport)
{
    ProgramBuilder b("empty");
    const BoundsReport rep = analysis::computeBounds(
        b.build(), MachineLimits::forIssueWidth(4));
    EXPECT_FALSE(rep.valid);
    const json::Value v = json::parse(analysis::boundsToJson(rep));
    EXPECT_FALSE(v.at("valid").asBool());
}

// ----------------------------------------------------------------- gate

TEST(BoundsGate, ModeParsesEnvironment)
{
    {
        EnvGuard g("DRSIM_BOUNDS_GATE", "off");
        EXPECT_EQ(boundsGateMode(), BoundsGateMode::Off);
    }
    {
        EnvGuard g("DRSIM_BOUNDS_GATE", "warn");
        EXPECT_EQ(boundsGateMode(), BoundsGateMode::Warn);
    }
    {
        EnvGuard g("DRSIM_BOUNDS_GATE", "panic");
        EXPECT_EQ(boundsGateMode(), BoundsGateMode::Panic);
    }
}

TEST(BoundsGate, CleanRunPassesInPanicMode)
{
    EnvGuard g("DRSIM_BOUNDS_GATE", "panic");
    const Workload w = buildWorkload("compress", 1);
    CoreConfig cfg;
    cfg.issueWidth = 4;
    cfg.numPhysRegs = 128;
    // simulate() runs checkStaticBounds internally; no panic/throw.
    const SimResult res = simulate(cfg, w);
    EXPECT_GT(res.commitIpc(), 0.0);
}

TEST(BoundsGateDeathTest, ImpossibleIpcPanics)
{
    EnvGuard g("DRSIM_BOUNDS_GATE", "panic");
    const Program prog = straightChain();
    CoreConfig cfg;
    SimResult res;
    res.workload = "doctored";
    res.proc.cycles = 1;
    res.proc.committed = 100; // IPC 100 on a 4-wide machine
    EXPECT_DEATH(checkStaticBounds(cfg, prog, res),
                 "exceeds the static bound");
}

TEST(BoundsGateDeathTest, UndercountedLiveRegistersPanic)
{
    EnvGuard g("DRSIM_BOUNDS_GATE", "panic");
    ProgramBuilder b("maxlive");
    b.li(intReg(1), 1);
    b.li(intReg(2), 2);
    b.li(intReg(3), 3);
    b.add(intReg(4), intReg(1), intReg(2));
    b.add(intReg(5), intReg(4), intReg(3));
    b.halt();
    const Program prog = b.build(); // static MaxLive = 3 int
    CoreConfig cfg;
    SimResult res;
    res.workload = "doctored";
    res.proc.cycles = 10;
    res.proc.committed = 10;
    res.proc.live[int(RegClass::Int)][3].addSample(1); // peak 1 < 3
    EXPECT_DEATH(checkStaticBounds(cfg, prog, res),
                 "below static MaxLive");
}

TEST(BoundsGate, ViolationsIgnoredWhenOff)
{
    EnvGuard g("DRSIM_BOUNDS_GATE", "off");
    const Program prog = straightChain();
    CoreConfig cfg;
    SimResult res;
    res.workload = "doctored";
    res.proc.cycles = 1;
    res.proc.committed = 100;
    checkStaticBounds(cfg, prog, res); // no abort, no throw
}

TEST(BoundsGate, ViolationsOnlyWarnInWarnMode)
{
    EnvGuard g("DRSIM_BOUNDS_GATE", "warn");
    const Program prog = straightChain();
    CoreConfig cfg;
    SimResult res;
    res.workload = "doctored";
    res.proc.cycles = 1;
    res.proc.committed = 100;
    checkStaticBounds(cfg, prog, res); // warns on stderr, returns
}

TEST(BoundsGate, SampledRunsAreExempt)
{
    EnvGuard g("DRSIM_BOUNDS_GATE", "panic");
    const Program prog = straightChain();
    CoreConfig cfg;
    SimResult res;
    res.workload = "doctored";
    res.sampled.enabled = true;
    res.proc.cycles = 1;
    res.proc.committed = 100;
    checkStaticBounds(cfg, prog, res); // composite timeline: skipped
}

} // namespace
} // namespace drsim
