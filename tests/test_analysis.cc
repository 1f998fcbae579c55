/**
 * @file
 * Unit tests for the static verifier (src/analysis): every rule fires
 * on a crafted malformed program, the shipped kernel suites pass
 * clean, the JSON output round-trips through the strict parser, and
 * frozen digests pin every verifier, bounds and mix output of the
 * kernels, the classic programs and the fuzz programs.
 */

#include <algorithm>
#include <cstdio>
#include <gtest/gtest.h>
#include <map>

#include "analysis/analysis.hh"
#include "analysis/bounds.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "fuzz_program.hh"
#include "sim/simulator.hh"
#include "workloads/builder.hh"
#include "workloads/classic.hh"
#include "workloads/digest.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

using analysis::Finding;
using analysis::Report;
using analysis::Severity;
namespace rules = analysis::rules;

bool
hasRule(const Report &r, const char *rule)
{
    return std::any_of(r.findings.begin(), r.findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

const Finding &
findRule(const Report &r, const char *rule)
{
    for (const Finding &f : r.findings)
        if (f.rule == rule)
            return f;
    throw std::logic_error(std::string("rule not found: ") + rule);
}

// ------------------------------------------------------------ rules

TEST(Analysis, EmptyProgramIsAnError)
{
    ProgramBuilder b("empty");
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kEmptyProgram));
    EXPECT_TRUE(r.hasErrors());
}

TEST(Analysis, UninitializedReadFires)
{
    ProgramBuilder b("uninit");
    b.addi(intReg(2), intReg(7), 1); // r7 never written
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kUninitRead);
    EXPECT_EQ(int(f.severity), int(Severity::Error));
    EXPECT_EQ(f.block, 0);
    EXPECT_EQ(f.offset, 0);
    EXPECT_EQ(f.pc, kCodeBase);
    EXPECT_NE(f.message.find("r7"), std::string::npos);
}

TEST(Analysis, ZeroRegReadsAreAlwaysInitialized)
{
    ProgramBuilder b("zero-read");
    b.li(intReg(1), 5);            // li reads r31
    b.add(intReg(2), intReg(1), intReg(kZeroReg));
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_FALSE(hasRule(r, rules::kUninitRead));
}

TEST(Analysis, AbiInitializedRegsSuppressUninitRead)
{
    ProgramBuilder b("abi");
    b.addi(intReg(2), intReg(7), 1);
    b.halt();
    analysis::Options opts;
    opts.abiInitializedRegs = {intReg(7)};
    const Report r = analysis::analyzeProgram(b.build(), opts);
    EXPECT_FALSE(hasRule(r, rules::kUninitRead));
}

TEST(Analysis, WriteOnOnlyOneArmIsStillUninit)
{
    // r2 is written on the taken arm only; the join reads it.
    ProgramBuilder b("one-arm");
    b.li(intReg(1), 1);
    const auto skip = b.newLabel();
    b.beq(intReg(1), skip);
    b.li(intReg(2), 9);
    b.bind(skip);
    b.addi(intReg(3), intReg(2), 1); // may read uninitialized r2
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kUninitRead));
}

TEST(Analysis, UnreachableBlockWarns)
{
    ProgramBuilder b("island");
    const auto end = b.newLabel();
    b.li(intReg(1), 1);
    b.br(end);
    b.here();                       // never targeted
    b.addi(intReg(1), intReg(1), 1);
    b.bind(end);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kUnreachable);
    EXPECT_EQ(int(f.severity), int(Severity::Warning));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Analysis, NoHaltLoopIsAnError)
{
    ProgramBuilder b("spin");
    b.li(intReg(1), 1);
    const auto top = b.here();
    b.addi(intReg(1), intReg(1), 1);
    b.br(top);                      // no path reaches Halt
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kNoHalt);
    EXPECT_EQ(int(f.severity), int(Severity::Error));
}

TEST(Analysis, CountedLoopWithExitIsNotFlaggedNoHalt)
{
    ProgramBuilder b("counted");
    b.li(intReg(1), 10);
    b.li(intReg(2), 0);
    const auto top = b.here();
    b.addi(intReg(2), intReg(2), 1);
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_FALSE(hasRule(r, rules::kNoHalt));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Analysis, FallOffEndIsAnError)
{
    ProgramBuilder b("no-halt-at-end");
    b.li(intReg(1), 1);
    b.addi(intReg(1), intReg(1), 1); // last block has no terminator
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kFallOffEnd));
    EXPECT_TRUE(r.hasErrors());
}

TEST(Analysis, BranchToTrailingEmptyBlockIsInvalidTarget)
{
    ProgramBuilder b("dangling");
    const auto l = b.newLabel();
    b.li(intReg(1), 1);
    b.bne(intReg(1), l);
    b.halt();
    b.bind(l); // bound, but no instruction ever follows
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kInvalidTarget));
    EXPECT_TRUE(r.hasErrors());
}

TEST(Analysis, DeadWriteWarns)
{
    ProgramBuilder b("dead");
    b.li(intReg(1), 5);
    b.li(intReg(1), 6); // first write is dead
    b.stq(intReg(1), intReg(kZeroReg), std::int64_t(kDataBase));
    b.halt();
    // Give the store a data word so mem-oob stays quiet.
    // (allocWords must come before build(); emit order is fine.)
    b.allocWords(1);
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kDeadWrite);
    EXPECT_EQ(int(f.severity), int(Severity::Warning));
    EXPECT_EQ(f.block, 0);
    EXPECT_EQ(f.offset, 0);
}

TEST(Analysis, DeadWriteFollowsBackEdgesAndBothArms)
{
    ProgramBuilder b("deadcfg");
    const Addr word = b.allocWords(1);
    const RegId zero = intReg(kZeroReg);
    b.li(intReg(1), 10);
    b.li(intReg(3), 0);
    const auto top = b.here();
    b.addi(intReg(4), intReg(3), 1);
    b.stq(intReg(4), zero, std::int64_t(word));
    b.addi(intReg(3), intReg(1), 5); // read only by the next iteration
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);

    const auto other = b.newLabel();
    const auto join = b.newLabel();
    b.li(intReg(5), 1); // read on one arm only
    b.li(intReg(6), 2); // overwritten on both arms: dead
    b.beq(intReg(4), other);
    b.stq(intReg(5), zero, std::int64_t(word));
    b.li(intReg(6), 3);
    b.br(join);
    b.bind(other);
    b.li(intReg(6), 4);
    b.bind(join);
    b.stq(intReg(6), zero, std::int64_t(word));
    b.halt();

    const Program prog = b.build();
    const Report r = analysis::analyzeProgram(prog);
    EXPECT_FALSE(r.hasErrors()) << r.summary();
    std::vector<Finding> dead;
    for (const Finding &f : r.findings)
        if (f.rule == rules::kDeadWrite)
            dead.push_back(f);
    ASSERT_EQ(dead.size(), 1u) << r.summary();
    EXPECT_EQ(dead[0].message, "value written to r6 is never read on "
                               "any path");
    const Instruction &inst = prog.instAt({dead[0].block, dead[0].offset});
    EXPECT_EQ(inst.imm, 2);
}

TEST(Analysis, ZeroRegWriteWarns)
{
    ProgramBuilder b("zwrite");
    b.li(intReg(kZeroReg), 42); // discarded
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kZeroRegWrite));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Analysis, SelfBranchWarns)
{
    ProgramBuilder b("selfspin");
    b.li(intReg(1), 0);
    const auto top = b.here();
    b.bne(intReg(1), top); // branch is its own target
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kSelfBranch));
}

TEST(Analysis, BodyLoopIsNotASelfBranch)
{
    // The canonical counted loop branches to its own *block* (the
    // label is bound at the block start) but not to itself.
    ProgramBuilder b("bodyloop");
    b.li(intReg(1), 10);
    const auto top = b.here();
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_FALSE(hasRule(r, rules::kSelfBranch));
}

TEST(Analysis, OutOfBoundsStoreIsAnError)
{
    ProgramBuilder b("oob");
    const Addr base = b.allocWords(4); // data = [base, base+32)
    b.li(intReg(1), std::int64_t(base));
    b.li(intReg(2), 7);
    b.stq(intReg(2), intReg(1), 64); // 32 bytes past the image
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kOobAccess);
    EXPECT_EQ(int(f.severity), int(Severity::Error));
    EXPECT_NE(f.message.find("store"), std::string::npos);
}

TEST(Analysis, LoadBelowDataBaseIsAnError)
{
    ProgramBuilder b("oob-low");
    b.allocWords(4);
    b.ldq(intReg(1), intReg(kZeroReg), 8); // address 8: not data
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(hasRule(r, rules::kOobAccess));
}

TEST(Analysis, InBoundsWindowPatternIsClean)
{
    // The andi/slli/add/ldq window idiom the kernels use: the index
    // interval must stay bounded through the address computation.
    ProgramBuilder b("window");
    const Addr base = b.allocWords(1024);
    b.li(intReg(1), std::int64_t(base));
    b.li(intReg(2), 100000);
    const auto top = b.here();
    b.andi(intReg(3), intReg(2), 1023);
    b.slli(intReg(3), intReg(3), 3);
    b.add(intReg(3), intReg(3), intReg(1));
    b.ldq(intReg(4), intReg(3), 0);
    b.subi(intReg(2), intReg(2), 1);
    b.bne(intReg(2), top);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_FALSE(hasRule(r, rules::kOobAccess));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Analysis, MisalignedConstantAddressWarns)
{
    ProgramBuilder b("misaligned");
    const Addr base = b.allocWords(4);
    b.li(intReg(1), std::int64_t(base));
    b.ldq(intReg(2), intReg(1), 4); // straddles the 8-byte grid
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kMisaligned);
    EXPECT_EQ(int(f.severity), int(Severity::Warning));
}

TEST(Analysis, MixDriftFiresOnAMisshapedKernel)
{
    // A program *named* like a suite kernel is held to that kernel's
    // registered mix signature; a branch-free FP-less loop is far
    // from compress's table entry.
    ProgramBuilder b("compress");
    b.li(intReg(1), 100);
    const auto top = b.here();
    b.addi(intReg(2), intReg(1), 1);
    b.addi(intReg(3), intReg(2), 1);
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const Finding &f = findRule(r, rules::kMixDrift);
    EXPECT_EQ(int(f.severity), int(Severity::Error));
    EXPECT_EQ(f.block, -1); // whole-program finding
}

TEST(Analysis, MixRuleCanBeDisabled)
{
    ProgramBuilder b("compress");
    b.li(intReg(1), 100);
    const auto top = b.here();
    b.subi(intReg(1), intReg(1), 1);
    b.bne(intReg(1), top);
    b.halt();
    analysis::Options opts;
    opts.checkMix = false;
    const Report r = analysis::analyzeProgram(b.build(), opts);
    EXPECT_FALSE(hasRule(r, rules::kMixDrift));
}

TEST(Analysis, UnnamedProgramHasNoMixTarget)
{
    EXPECT_EQ(analysis::mixTargetFor("not-a-kernel"), nullptr);
    EXPECT_NE(analysis::mixTargetFor("tomcatv"), nullptr);
}

// ------------------------------------------------- mix estimation

TEST(Analysis, LoopBodiesDominateTheMixEstimate)
{
    // One load in a loop vs. 20 straight-line ALU ops: the loop body
    // must dominate the weighted estimate.
    ProgramBuilder b("weighted");
    const Addr base = b.allocWords(8);
    for (int i = 0; i < 20; ++i)
        b.li(intReg(3), i);
    b.li(intReg(1), std::int64_t(base));
    b.li(intReg(2), 100);
    const auto top = b.here();
    b.ldq(intReg(4), intReg(1), 0);
    b.subi(intReg(2), intReg(2), 1);
    b.bne(intReg(2), top);
    b.halt();
    const analysis::MixEstimate est = analysis::estimateMix(b.build());
    // Unweighted, loads would be 1/27 = 3.7%; weighted, 1/3 of the
    // dominant block.
    EXPECT_GT(est.loadPct, 25.0);
    EXPECT_GT(est.condBranchPct, 25.0);
}

// ------------------------------------------------- suites are clean

TEST(Analysis, AllNineKernelsHaveZeroErrors)
{
    for (const auto &w : buildSpec92Suite(2)) {
        const Report r = analysis::analyzeProgram(w.program);
        EXPECT_FALSE(r.hasErrors())
            << w.spec->name << ": " << r.summary()
            << (r.findings.empty()
                    ? ""
                    : "\n  first: " +
                          analysis::formatFinding(r.findings.front()));
    }
}

TEST(Analysis, ClassicSuiteHasZeroErrors)
{
    for (const auto &[name, prog] : buildClassicSuite()) {
        const Report r = analysis::analyzeProgram(prog);
        EXPECT_FALSE(r.hasErrors()) << name << ": " << r.summary();
    }
}

/**
 * Everything the static analysis layer prints about @p prog: the
 * verifier report, the bounds at issue widths 4 and 8, and the mix
 * estimate (as exact hex floats).
 */
std::string
analysisText(const Program &prog)
{
    std::string text =
        analysis::reportToJson(analysis::analyzeProgram(prog));
    for (const int width : {4, 8}) {
        text += analysis::boundsToJson(analysis::computeBounds(
            prog, analysis::MachineLimits::forIssueWidth(width)));
    }
    const analysis::MixEstimate mix = analysis::estimateMix(prog);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%a %a %a %a %a", mix.loadPct,
                  mix.storePct, mix.condBranchPct, mix.fpPct,
                  mix.totalWeight);
    return text + buf;
}

TEST(Analysis, OutputDigestsAreFrozen)
{
    // Pins every analysis output byte for byte, so a refactor of the
    // CFG, loop or liveness machinery must leave these alone.  A
    // deliberate change to a rule, a bound or a kernel is a new
    // output; update its value here.
    const std::map<std::string, std::string> frozen = {
        {"compress", "04050abae6ff263a"},
        {"doduc", "520526492e8981ee"},
        {"espresso", "b0b9d38fe31a6405"},
        {"gcc1", "466478cfd9edf3d7"},
        {"mdljdp2", "9590c0503e6519ae"},
        {"mdljsp2", "a46b2589fecc1a59"},
        {"ora", "67275b8325cdab61"},
        {"su2cor", "604bcee758a18071"},
        {"tomcatv", "18f45086cbd43ac0"},
        {"daxpy", "5c442bf24a9fb49a"},
        {"sieve", "ca489377afeed924"},
        {"queens", "1fdca1c4f6b6c08d"},
        {"wordcopy", "b74ca188c7154829"},
        {"whet", "cd264dab6b33bfe0"},
    };
    for (const Workload &w : buildSpec92Suite(2)) {
        EXPECT_EQ(fnv1aHex(analysisText(w.program)),
                  frozen.at(w.spec->name))
            << w.spec->name;
    }
    for (const auto &[name, prog] : buildClassicSuite())
        EXPECT_EQ(fnv1aHex(analysisText(prog)), frozen.at(name)) << name;

    // The 24 differential-fuzzing programs, as one digest.
    std::string fuzz;
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        fuzz += analysisText(randomProgram(seed));
    EXPECT_EQ(fnv1aHex(fuzz), "c1548814fb527c13");
}

// ------------------------------------------------------- reporting

TEST(Analysis, FindingsAreSortedAndSummaryCounts)
{
    ProgramBuilder b("multi");
    b.li(intReg(kZeroReg), 1);        // warning at block 0
    b.addi(intReg(1), intReg(9), 1);  // error at block 0
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    EXPECT_TRUE(std::is_sorted(
        r.findings.begin(), r.findings.end(),
        [](const Finding &a, const Finding &c) {
            return std::make_tuple(a.block, a.offset, a.rule) <
                   std::make_tuple(c.block, c.offset, c.rule);
        }));
    EXPECT_EQ(r.count(Severity::Error), r.errorCount());
    EXPECT_NE(r.summary().find("error"), std::string::npos);
    EXPECT_NE(r.summary().find("warning"), std::string::npos);
}

TEST(Analysis, FormatFindingMentionsRuleAndLocation)
{
    ProgramBuilder b("fmt");
    b.addi(intReg(1), intReg(9), 1);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const std::string line =
        analysis::formatFinding(findRule(r, rules::kUninitRead));
    EXPECT_NE(line.find("error[dataflow-uninit-read]"),
              std::string::npos);
    EXPECT_NE(line.find("block 0"), std::string::npos);
    EXPECT_NE(line.find("pc 0x1000"), std::string::npos);
}

TEST(Analysis, JsonReportRoundTripsThroughStrictParser)
{
    ProgramBuilder b("json \"quoted\" name");
    b.addi(intReg(1), intReg(9), 1);
    b.halt();
    const Report r = analysis::analyzeProgram(b.build());
    const json::Value v = json::parse(analysis::reportToJson(r));
    EXPECT_EQ(v.at("schema").asString(), "drsim-lint-v1");
    EXPECT_EQ(v.at("program").asString(), "json \"quoted\" name");
    EXPECT_EQ(std::size_t(v.at("errors").asNumber()), r.errorCount());
    const auto &findings = v.at("findings").items();
    ASSERT_EQ(findings.size(), r.findings.size());
    EXPECT_EQ(findings.at(0).at("rule").asString(),
              r.findings.at(0).rule);
    EXPECT_EQ(std::int64_t(findings.at(0).at("block").asNumber()),
              std::int64_t(r.findings.at(0).block));
}

// --------------------------------------------------- verifyProgram

TEST(Analysis, VerifyProgramThrowsOnErrors)
{
    ProgramBuilder b("broken");
    b.addi(intReg(1), intReg(9), 1); // uninit read
    b.halt();
    const Program p = b.build();
    try {
        verifyProgram(p);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("dataflow-uninit-read"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("refusing to simulate"),
                  std::string::npos);
    }
}

TEST(Analysis, VerifyProgramAcceptsWarningsOnly)
{
    ProgramBuilder b("warn-only");
    b.li(intReg(kZeroReg), 1); // zero-reg write: warning
    b.halt();
    EXPECT_NO_THROW(verifyProgram(b.build()));
}

TEST(Analysis, SimulateRefusesBrokenPrograms)
{
    ProgramBuilder b("sim-broken");
    b.li(intReg(1), 1);
    const auto top = b.here();
    b.addi(intReg(1), intReg(1), 1);
    b.br(top); // guaranteed infinite loop
    CoreConfig cfg;
    cfg.maxCommitted = 100;
    EXPECT_THROW(simulateProgram(cfg, b.build()), FatalError);
}

} // namespace
} // namespace drsim
