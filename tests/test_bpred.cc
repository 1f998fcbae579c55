/**
 * @file
 * Unit tests for the branch-predictor backends (DESIGN.md §5k): the
 * McFarling combined predictor's learning behavior, the
 * speculative-history-update-and-repair discipline on every backend,
 * plus the factory and the properties every backend must share —
 * learning biased branches, opaque-history round-trips, and
 * checkpointable saveState()/restoreState().
 */

#include <string>

#include <gtest/gtest.h>

#include "bpred/mcfarling.hh"
#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace drsim {
namespace {

constexpr Addr kPc = 0x1000;

/** Architecture-style harness: predict+update history at "insert",
 *  train counters at "issue", repair on mispredict. */
bool
drive(BranchPredictor &p, Addr pc, bool actual)
{
    const std::uint64_t before = p.history();
    const bool pred = p.predictAndUpdateHistory(pc);
    p.update(pc, before, actual);
    if (pred != actual)
        p.repairHistory(before, actual);
    return pred == actual;
}

TEST(Predictor, LearnsAlwaysTaken)
{
    CombinedPredictor p;
    int correct = 0;
    for (int i = 0; i < 100; ++i)
        correct += drive(p, kPc, true);
    // After warmup, every prediction is right.
    EXPECT_GE(correct, 97);
    EXPECT_TRUE(p.predict(kPc));
}

TEST(Predictor, LearnsAlwaysNotTaken)
{
    CombinedPredictor p;
    for (int i = 0; i < 8; ++i)
        drive(p, kPc, false);
    EXPECT_FALSE(p.predict(kPc));
}

TEST(Predictor, BimodalHysteresis)
{
    CombinedPredictor p;
    for (int i = 0; i < 16; ++i)
        drive(p, kPc, true);
    // One not-taken blip must not flip a saturated taken counter.
    drive(p, kPc, false);
    EXPECT_TRUE(p.predict(kPc));
}

TEST(Predictor, GlobalHistoryLearnsAlternation)
{
    // A strict alternation is invisible to the bimodal predictor but
    // trivial for the gshare component; the selector must route to it.
    CombinedPredictor p;
    int correct_late = 0;
    for (int i = 0; i < 400; ++i) {
        const bool actual = (i % 2) == 0;
        const bool ok = drive(p, kPc, actual);
        if (i >= 200)
            correct_late += ok;
    }
    EXPECT_GE(correct_late, 195);
}

TEST(Predictor, GlobalHistoryLearnsShortPattern)
{
    // Period-4 pattern TTTN, as in loop nests of 4.
    CombinedPredictor p;
    int correct_late = 0;
    for (int i = 0; i < 800; ++i) {
        const bool actual = (i % 4) != 3;
        const bool ok = drive(p, kPc, actual);
        if (i >= 400)
            correct_late += ok;
    }
    EXPECT_GE(correct_late, 390);
}

TEST(Predictor, RandomBranchesMispredictOften)
{
    CombinedPredictor p;
    Rng rng(17);
    int wrong = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        wrong += !drive(p, kPc, rng.chance(0.5));
    // An unpredictable branch should hover near 50% mispredicts.
    EXPECT_GT(wrong, n / 3);
}

TEST(Predictor, BiasedRandomMispredictsNearMinority)
{
    CombinedPredictor p;
    Rng rng(23);
    int wrong = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        wrong += !drive(p, kPc, rng.chance(0.2));
    const double rate = double(wrong) / n;
    EXPECT_GT(rate, 0.10);
    EXPECT_LT(rate, 0.40);
}

/** The history token after shifting @p taken into @p before: each
 *  backend keeps a different number of history bits. */
std::uint64_t
shifted(const std::string &spec, std::uint64_t before, bool taken)
{
    const std::uint64_t h = (before << 1) | std::uint64_t(taken);
    if (spec == "bimodal")
        return 0;
    if (spec == "gshare")
        return h & ((1u << 12) - 1);
    if (spec == "mcfarling")
        return h & ((1u << 11) - 1);
    return h; // tage keeps all 64 bits
}

TEST(Predictor, HistoryShiftsOnPredict)
{
    // The shared predict-then-shift serves every backend.  Train taken
    // long enough to fill the widest register, so a wrong mask shows.
    for (const std::string &spec : predictorSpecs()) {
        const auto p = makeBranchPredictor(spec);
        for (int i = 0; i < 80; ++i)
            drive(*p, kPc, true);
        const std::uint64_t before = p->history();
        EXPECT_TRUE(p->predictAndUpdateHistory(kPc)) << spec;
        EXPECT_EQ(p->history(), shifted(spec, before, true)) << spec;
    }
}

TEST(Predictor, RepairRestoresPreBranchHistory)
{
    for (const std::string &spec : predictorSpecs()) {
        const auto p = makeBranchPredictor(spec);
        for (int i = 0; i < 80; ++i)
            drive(*p, kPc, true);
        const std::uint64_t before = p->history();
        p->predictAndUpdateHistory(kPc); // speculative: shifts in "taken"
        // Mispredict: actual direction was not-taken.
        p->repairHistory(before, false);
        EXPECT_EQ(p->history(), shifted(spec, before, false)) << spec;
        // A token is masked to the backend's width on the way in.
        p->repairHistory(~std::uint64_t(0), true);
        EXPECT_EQ(p->history(), shifted(spec, ~std::uint64_t(0), true))
            << spec;
    }
}

TEST(Predictor, PredictIsStateless)
{
    CombinedPredictor p;
    const std::uint64_t before = p.history();
    (void)p.predict(kPc);
    (void)p.predict(kPc);
    EXPECT_EQ(p.history(), before);
}

TEST(Predictor, DistinctPcsTrainIndependently)
{
    CombinedPredictor p;
    const Addr pc_a = 0x1000;
    const Addr pc_b = 0x2000; // different bimodal index
    for (int i = 0; i < 16; ++i) {
        drive(p, pc_a, true);
        drive(p, pc_b, false);
    }
    EXPECT_TRUE(p.predict(pc_a));
    EXPECT_FALSE(p.predict(pc_b));
}

TEST(Predictor, SelectorPrefersBetterComponent)
{
    // Alternating pattern: gshare wins; after training, a fresh
    // mispredict-free stretch implies the selector routed to gshare.
    CombinedPredictor p;
    for (int i = 0; i < 600; ++i)
        drive(p, kPc, (i % 2) == 0);
    int correct = 0;
    for (int i = 600; i < 700; ++i)
        correct += drive(p, kPc, (i % 2) == 0);
    EXPECT_GE(correct, 98);
}

// ------------------------------------------------- backend interface

TEST(PredictorFactory, BuildsEveryRegisteredBackend)
{
    ASSERT_EQ(predictorSpecs().size(), 4u);
    for (const std::string &spec : predictorSpecs()) {
        EXPECT_TRUE(knownPredictor(spec));
        EXPECT_NE(predictorSpecList().find(spec), std::string::npos);
        const auto p = makeBranchPredictor(spec);
        ASSERT_NE(p, nullptr) << spec;
        EXPECT_EQ(p->name(), spec);
    }
    EXPECT_FALSE(knownPredictor("perceptron"));
    EXPECT_FALSE(knownPredictor(""));
    EXPECT_THROW(makeBranchPredictor("perceptron"), FatalError);
    EXPECT_THROW(makeBranchPredictor(""), FatalError);
}

TEST(PredictorBackends, AllLearnBiasedBranches)
{
    for (const std::string &spec : predictorSpecs()) {
        // Warmup varies by backend (gshare touches a fresh counter
        // for every new history value), so score steady state only.
        const auto p = makeBranchPredictor(spec);
        int correct_late = 0;
        for (int i = 0; i < 200; ++i) {
            const bool ok = drive(*p, kPc, true);
            if (i >= 100)
                correct_late += ok;
        }
        EXPECT_GE(correct_late, 99) << spec;
        EXPECT_TRUE(p->predict(kPc)) << spec;

        const auto q = makeBranchPredictor(spec);
        for (int i = 0; i < 16; ++i)
            drive(*q, 0x2000, false);
        EXPECT_FALSE(q->predict(0x2000)) << spec;
    }
}

TEST(PredictorBackends, HistoryBackendsLearnAlternation)
{
    // Strict alternation is invisible to a per-PC counter but trivial
    // with global history; every history-carrying backend nails it.
    for (const char *spec : {"mcfarling", "gshare", "tage"}) {
        const auto p = makeBranchPredictor(spec);
        int correct_late = 0;
        for (int i = 0; i < 600; ++i) {
            const bool ok = drive(*p, kPc, (i % 2) == 0);
            if (i >= 500)
                correct_late += ok;
        }
        EXPECT_GE(correct_late, 95) << spec;
    }

    // Bimodal has no history register: the token stays 0 and the
    // alternation stays unlearnable.
    const auto bim = makeBranchPredictor("bimodal");
    EXPECT_EQ(bim->history(), 0u);
    bim->shiftHistory(true);
    bim->predictAndUpdateHistory(kPc);
    EXPECT_EQ(bim->history(), 0u);
    int correct_late = 0;
    for (int i = 0; i < 600; ++i) {
        const bool ok = drive(*bim, kPc, (i % 2) == 0);
        if (i >= 400)
            correct_late += ok;
    }
    EXPECT_LE(correct_late, 150); // of 200 — no better than chance-ish
}

TEST(PredictorBackends, SaveRestoreRoundTripsEveryBackend)
{
    for (const std::string &spec : predictorSpecs()) {
        // Train over a spread of PCs with a biased-random stream so
        // tables, (tage) tags, and the history register all carry
        // non-trivial state.
        const auto p = makeBranchPredictor(spec);
        Rng train(41);
        for (int i = 0; i < 3000; ++i)
            drive(*p, 0x1000 + Addr(i % 37) * 4, train.chance(0.7));
        const std::vector<std::uint8_t> image = p->saveState();
        EXPECT_FALSE(image.empty()) << spec;

        // A second instance, deliberately diverged, must become an
        // exact clone after restore…
        const auto q = makeBranchPredictor(spec);
        Rng diverge(99);
        for (int i = 0; i < 500; ++i)
            drive(*q, 0x5000 + Addr(i % 11) * 4, diverge.chance(0.5));
        q->restoreState(image);
        EXPECT_EQ(q->history(), p->history()) << spec;
        EXPECT_EQ(q->saveState(), image) << spec;

        // …including identical *future* behavior under a shared
        // stream (the sampling path's warm-state contract).
        Rng a(7), b(7);
        for (int i = 0; i < 500; ++i) {
            const Addr pc = 0x1000 + Addr(i % 53) * 4;
            const bool taken_a = a.chance(0.6);
            const bool taken_b = b.chance(0.6);
            ASSERT_EQ(taken_a, taken_b);
            EXPECT_EQ(p->predict(pc), q->predict(pc)) << spec;
            drive(*p, pc, taken_a);
            drive(*q, pc, taken_b);
        }
        EXPECT_EQ(q->saveState(), p->saveState()) << spec;
    }
}

TEST(PredictorBackends, RestoreRejectsWrongSizedImages)
{
    for (const std::string &spec : predictorSpecs()) {
        const auto p = makeBranchPredictor(spec);
        std::vector<std::uint8_t> image = p->saveState();
        image.pop_back();
        EXPECT_THROW(p->restoreState(image), FatalError) << spec;
        EXPECT_THROW(p->restoreState({}), FatalError) << spec;
    }
    // A bimodal image (no history word) can never restore a gshare.
    const auto bim = makeBranchPredictor("bimodal");
    const auto gsh = makeBranchPredictor("gshare");
    EXPECT_THROW(gsh->restoreState(bim->saveState()), FatalError);
}

} // namespace
} // namespace drsim
