/**
 * @file
 * Tests for the SPEC92-like kernel suite: every kernel must build,
 * terminate, be deterministic, scale with the scale parameter, and
 * exhibit the instruction-mix character its SPEC92 counterpart is
 * documented to have (Table 1 of the paper).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "workloads/classic.hh"
#include "workloads/digest.hh"
#include "workloads/emulator.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace {

struct MixExpectation
{
    const char *name;
    bool fpIntensive;
    /** Architectural load fraction bounds (of executed instructions). */
    double loadLo, loadHi;
    /** Conditional-branch fraction bounds. */
    double cbrLo, cbrHi;
    /** Fraction of FP-arithmetic operations (FpAdd+FpDiv classes). */
    double fpLo, fpHi;
};

const MixExpectation kMix[] = {
    // name       fp     loads        cbr          fp ops
    {"compress", false, 0.10, 0.30, 0.05, 0.20, 0.00, 0.001},
    {"doduc",    true,  0.05, 0.20, 0.05, 0.20, 0.15, 0.50},
    {"espresso", false, 0.08, 0.20, 0.10, 0.25, 0.00, 0.001},
    {"gcc1",     false, 0.12, 0.35, 0.05, 0.20, 0.00, 0.001},
    {"mdljdp2",  true,  0.05, 0.20, 0.03, 0.15, 0.30, 0.65},
    {"mdljsp2",  true,  0.05, 0.20, 0.03, 0.15, 0.30, 0.65},
    {"ora",      true,  0.05, 0.20, 0.02, 0.12, 0.25, 0.60},
    {"su2cor",   true,  0.10, 0.30, 0.03, 0.15, 0.15, 0.50},
    {"tomcatv",  true,  0.20, 0.35, 0.02, 0.10, 0.20, 0.55},
};

struct MixCount
{
    std::uint64_t total = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t cbr = 0;
    std::uint64_t fp = 0;
};

MixCount
runArchMix(const Program &prog, std::uint64_t max_steps = 3000000)
{
    Emulator emu(prog);
    MixCount mix;
    while (!emu.fetchBlocked() && mix.total < max_steps) {
        const StepInfo info = emu.stepArch();
        ++mix.total;
        switch (info.inst->cls()) {
          case OpClass::MemLoad:
            ++mix.loads;
            break;
          case OpClass::MemStore:
            ++mix.stores;
            break;
          case OpClass::CtrlCond:
            ++mix.cbr;
            break;
          case OpClass::FpAdd:
          case OpClass::FpDiv:
            ++mix.fp;
            break;
          default:
            break;
        }
    }
    return mix;
}

// Print the case by name, as for ClassLimitCase in
// test_processor_edge.cc: the raw-byte dump would hold an address.
void
PrintTo(const MixExpectation &e, std::ostream *os)
{
    *os << e.name;
}

class KernelMix : public ::testing::TestWithParam<MixExpectation>
{};

TEST_P(KernelMix, TerminatesWithDocumentedInstructionMix)
{
    const MixExpectation &e = GetParam();
    const Workload w = buildWorkload(e.name, 2);
    const MixCount mix = runArchMix(w.program);
    ASSERT_GT(mix.total, 5000u) << "kernel suspiciously short";
    ASSERT_LT(mix.total, 3000000u) << "kernel did not terminate";

    const double loads = double(mix.loads) / double(mix.total);
    const double cbr = double(mix.cbr) / double(mix.total);
    const double fp = double(mix.fp) / double(mix.total);
    EXPECT_GE(loads, e.loadLo) << "load fraction";
    EXPECT_LE(loads, e.loadHi) << "load fraction";
    EXPECT_GE(cbr, e.cbrLo) << "branch fraction";
    EXPECT_LE(cbr, e.cbrHi) << "branch fraction";
    EXPECT_GE(fp, e.fpLo) << "fp fraction";
    EXPECT_LE(fp, e.fpHi) << "fp fraction";
    EXPECT_EQ(w.spec->fpIntensive, e.fpIntensive);
    // Every kernel stores something (write-buffer path exercised).
    EXPECT_GT(mix.stores, 0u);
}

TEST_P(KernelMix, DeterministicAcrossBuilds)
{
    const MixExpectation &e = GetParam();
    const Workload a = buildWorkload(e.name, 1);
    const Workload b = buildWorkload(e.name, 1);
    Emulator ea(a.program), eb(b.program);
    while (!ea.fetchBlocked())
        ea.stepArch();
    while (!eb.fetchBlocked())
        eb.stepArch();
    EXPECT_EQ(ea.stepsExecuted(), eb.stepsExecuted());
    EXPECT_EQ(ea.stateHash(), eb.stateHash());
}

TEST_P(KernelMix, ScaleGrowsDynamicLength)
{
    // Scales far enough apart that even tomcatv (whose natural unit
    // of work is several scale units) must grow.
    const MixExpectation &e = GetParam();
    const Workload s1 = buildWorkload(e.name, 1);
    const Workload s18 = buildWorkload(e.name, 18);
    Emulator e1(s1.program), e18(s18.program);
    while (!e1.fetchBlocked())
        e1.stepArch();
    while (!e18.fetchBlocked())
        e18.stepArch();
    EXPECT_GT(e18.stepsExecuted(), 2 * e1.stepsExecuted());
}

INSTANTIATE_TEST_SUITE_P(
    Spec92, KernelMix, ::testing::ValuesIn(kMix),
    [](const ::testing::TestParamInfo<MixExpectation> &pinfo) {
        return std::string(pinfo.param.name);
    });

TEST(KernelSuite, ProgramsAreModest)
{
    // Kernels are loops, not unrolled blobs: static size stays small
    // so the modeled I-cache behaves like the paper's (<1% misses).
    for (const auto &w : buildSpec92Suite(1)) {
        EXPECT_LT(w.program.numInsts(), 400u) << w.spec->name;
        EXPECT_GT(w.program.numInsts(), 20u) << w.spec->name;
    }
}

TEST(KernelSuite, IntKernelsTouchNoFpRegisters)
{
    for (const char *name : {"compress", "espresso", "gcc1"}) {
        const Workload w = buildWorkload(name, 1);
        for (const auto &bb : w.program.blocks()) {
            for (const auto &inst : bb.insts) {
                EXPECT_FALSE(inst.dest.valid() &&
                             inst.dest.cls == RegClass::Fp)
                    << name;
            }
        }
    }
}

TEST(KernelSuite, DataFootprintsDiffer)
{
    // compress's working set must dwarf espresso's (that is where the
    // 15% vs 1% miss-rate difference comes from).
    const Workload c = buildWorkload("compress", 1);
    const Workload e = buildWorkload("espresso", 1);
    EXPECT_GT(c.program.initialWords().size(),
              4 * e.program.initialWords().size());
}

TEST(KernelSuite, ContentDigestsAreFrozen)
{
    // Every point-cache and checkpoint-library key folds in
    // programDigest(), so these values pin each kernel's code and
    // data image as the caches see them: a change to how a Program
    // stores either must leave them alone.  A deliberate kernel edit
    // is a new simulation input; update its value here.
    const std::map<std::pair<std::string, std::uint64_t>, std::string>
        frozen = {
            {{"compress", 0}, "bef3898c2edf92f8"},
            {{"doduc", 0}, "703643e37c40b0fd"},
            {{"espresso", 0}, "febacd91b43170c7"},
            {{"gcc1", 0}, "a273dd65cabc01cf"},
            {{"mdljdp2", 0}, "682df22e1cba4224"},
            {{"mdljsp2", 0}, "0f73d1ec1c49f78a"},
            {{"ora", 0}, "3b980bb46735b488"},
            {{"su2cor", 0}, "5731a344869b9755"},
            {{"tomcatv", 0}, "7df92a3a20ae2a77"},
            // ext_variance builds the kernels at seeds 0..4.
            {{"compress", 3}, "dde8a6a2bd41b79f"},
            {{"doduc", 3}, "6a9c63a3a47fe4a5"},
            {{"espresso", 3}, "93d838b1470df238"},
            {{"gcc1", 3}, "f7335bb4e25cd430"},
            {{"mdljdp2", 3}, "2b6053b0a4895918"},
            {{"mdljsp2", 3}, "5f7afaeca19c94a9"},
            {{"ora", 3}, "c1de0bf0cc2494e8"},
            {{"su2cor", 3}, "3039919f260a58fe"},
            {{"tomcatv", 3}, "6f655803e11560e9"},
        };
    for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{3}}) {
        for (const Workload &w : buildSpec92Suite(2, seed)) {
            EXPECT_EQ(programDigest(w.program),
                      frozen.at({w.spec->name, seed}))
                << w.spec->name << " seed " << seed;
        }
    }

    const std::map<std::string, std::string> classic = {
        {"daxpy", "b109b6570bac2690"},
        {"sieve", "6f1f65cae24cd9ab"},
        {"queens", "e7f04b1a955c6815"},
        {"wordcopy", "4692fc5eb6387198"},
        {"whet", "93bea4dba882e5d4"},
    };
    for (const auto &[name, program] : buildClassicSuite())
        EXPECT_EQ(programDigest(program), classic.at(name)) << name;
}

} // namespace
} // namespace drsim
