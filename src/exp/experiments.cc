/**
 * @file
 * The registered experiments: every paper table/figure reproduction,
 * the ablation studies, and the extension sweeps, each one a
 * declarative grid (or a custom harness body) plus the print code
 * that renders the harness's stdout tables.
 *
 * The grids expand to the exact spec vectors — names, configs, and
 * orderings — the bench/ harness mains used to build by hand, and the
 * print functions are verbatim ports of those mains' table code, so
 * both the stdout and the JSON artifacts of the exporting experiments
 * (table1, fig6, fig7, fig8, ablations) are byte-identical to the
 * pre-registry harnesses (tests/test_exp.cc and the CI golden diff
 * hold that line).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/bounds.hh"
#include "bpred/predictor.hh"
#include "common/stats.hh"
#include "exp/experiments.hh"
#include "timing/regfile_timing.hh"
#include "timing/structures.hh"

namespace drsim {
namespace exp {
namespace detail {

namespace {

constexpr int kPaperRegSweep[] = {32, 48, 64, 80, 96, 128, 160, 256};

std::vector<int>
paperRegs()
{
    return {std::begin(kPaperRegSweep), std::end(kPaperRegSweep)};
}

std::vector<ExceptionModel>
bothModels()
{
    return {ExceptionModel::Precise, ExceptionModel::Imprecise};
}

std::vector<CacheKind>
allCaches()
{
    return {CacheKind::Perfect, CacheKind::LockupFree,
            CacheKind::Lockup};
}

// ---------------------------------------------------------------- table1

std::vector<GridDef>
table1Grids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {widthAxis({4, 8}), regsAxis({2048})};
    return {grid};
}

void
table1PrintWidth(int width, const SuiteResult &res)
{
    std::printf("\n--- %d-way issue, DQ=%d, 2048 registers, "
                "lockup-free cache ---\n",
                width, width == 4 ? 32 : 64);
    std::printf("%-9s %9s %9s %8s %8s | %6s %6s | %6s %6s\n",
                "bench", "commit", "exec", "ld", "cbr", "issIPC",
                "cmtIPC", "ld%", "cbr%");
    for (const SimResult &r : res.runs()) {
        std::printf(
            "%-9s %9llu %9llu %8llu %8llu | %6.2f %6.2f | %5.1f%% "
            "%5.1f%%\n",
            r.workload.c_str(), (unsigned long long)r.proc.committed,
            (unsigned long long)r.proc.executed,
            (unsigned long long)r.proc.executedLoads,
            (unsigned long long)r.proc.executedCondBranches,
            r.issueIpc(), r.commitIpc(), 100.0 * r.loadMissRate,
            100.0 * r.mispredictRate());
    }
    std::printf("%-9s %38s | %6.2f %6.2f |\n", "average", "",
                res.avgIssueIpc(), res.avgCommitIpc());
}

void
table1Print(const RunContext &ctx,
            const std::vector<ExperimentResult> &results)
{
    std::printf("workload scale %d, per-run commit cap %llu "
                "(0 = to completion)\n",
                ctx.scale, (unsigned long long)ctx.maxCommitted);
    table1PrintWidth(4, results[0].suite);
    table1PrintWidth(8, results[1].suite);
    std::printf(
        "\npaper reference (Table 1, 4-way): compress 3.06/2.09 "
        "15%%/14%% | doduc 2.75/2.49 1%%/10%% | espresso 3.39/3.04 "
        "1%%/13%%\n  gcc1 2.80/2.35 1%%/19%% | mdljdp2 2.33/2.12 "
        "3%%/6%% | mdljsp2 2.97/2.69 1%%/6%% | ora 1.86/1.86 "
        "0%%/6%%\n  su2cor 3.38/3.22 17%%/7%% | tomcatv 2.77/2.77 "
        "33%%/1%%\n");
    printStallSummary(results);
}

// ------------------------------------------------------------------ fig3

constexpr int kFig3DqSweep[] = {8, 16, 32, 64, 128, 256};

std::vector<GridDef>
fig3Grids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {widthAxis({4, 8}),
                 dqAxis({std::begin(kFig3DqSweep),
                         std::end(kFig3DqSweep)})};
    return {grid};
}

void
fig3Print(const RunContext &,
          const std::vector<ExperimentResult> &results)
{
    std::size_t k = 0;
    for (const int width : {4, 8}) {
        std::printf("\n--- %d-way issue, 2048 registers ---\n", width);
        std::printf("%5s %6s %6s | %28s | %28s\n", "DQ", "issIPC",
                    "cmtIPC", "int regs (90th pct, nested)",
                    "fp regs (90th pct, nested)");
        std::printf("%5s %6s %6s | %6s %6s %6s %6s | %6s %6s %6s "
                    "%6s\n",
                    "", "", "", "inflt", "+dq", "+impr", "+prec",
                    "inflt", "+dq", "+impr", "+prec");
        for (const int dq : kFig3DqSweep) {
            const SuiteResult &res = results[k++].suite;
            std::printf("%5d %6.2f %6.2f |", dq, res.avgIssueIpc(),
                        res.avgCommitIpc());
            for (const RegClass cls : {RegClass::Int, RegClass::Fp}) {
                for (const LiveLevel lvl :
                     {LiveLevel::InFlight, LiveLevel::PlusQueue,
                      LiveLevel::ImpreciseLive,
                      LiveLevel::PreciseLive}) {
                    std::printf(" %6llu",
                                (unsigned long long)
                                    res.livePercentile(cls, lvl, 0.9));
                }
                if (cls == RegClass::Int)
                    std::printf(" |");
            }
            std::printf("\n");
        }
    }
    std::printf(
        "\npaper reference: 4-way issue IPC rises toward 4 and commit "
        "IPC saturates near DQ=32;\n8-way saturates near DQ=64; the "
        "+prec (total live) column grows steadily with DQ and the\n"
        "imprecise-wait region grows faster than the precise-wait "
        "region; fp totals floor at >=32.\n");
}

// ------------------------------------------------------------------ fig4

std::vector<GridDef>
fig4Grids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {widthAxis({4, 8}), modelAxis(bothModels())};
    return {grid};
}

void
fig4PrintCurve(const char *tag, const SuiteResult &res, RegClass cls,
               LiveLevel lvl)
{
    std::printf("%-22s", tag);
    for (const double frac : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95,
                              0.99, 1.0}) {
        std::printf(" %6llu",
                    (unsigned long long)res.livePercentile(cls, lvl,
                                                           frac));
    }
    std::printf("\n");
}

void
fig4Print(const RunContext &,
          const std::vector<ExperimentResult> &results)
{
    std::printf("rows give the register count covering X%% of run "
                "time (averaged distributions)\n");
    std::size_t k = 0;
    for (const int width : {4, 8}) {
        std::printf("\n--- %d-way issue processor ---\n", width);
        std::printf("%-22s %6s %6s %6s %6s %6s %6s %6s %6s\n", "curve",
                    "10%", "25%", "50%", "75%", "90%", "95%", "99%",
                    "100%");
        for (const auto model : bothModels()) {
            const SuiteResult &res = results[k++].suite;
            // Under either model the run's own live total is the
            // +prec level (in an imprecise run the precise-wait
            // category is always empty, so the levels coincide).
            char tag[64];
            std::snprintf(tag, sizeof(tag), "int %s",
                          exceptionModelName(model));
            fig4PrintCurve(tag, res, RegClass::Int,
                           LiveLevel::PreciseLive);
            std::snprintf(tag, sizeof(tag), "fp  %s",
                          exceptionModelName(model));
            fig4PrintCurve(tag, res, RegClass::Fp,
                           LiveLevel::PreciseLive);
        }
    }
    std::printf("\npaper reference: 90%% coverage at ~90 registers "
                "(4-way) and ~150 (8-way) under precise\nexceptions; "
                "imprecise curves shifted toward zero; the imprecise "
                "model cut average register\nneeds by up to ~20%% "
                "(4-way) and ~37%% (8-way).\n");
}

// ------------------------------------------------------------------ fig5

std::vector<GridDef>
fig5Grids()
{
    GridDef grid;
    grid.base = paperConfig(8, 2048);
    grid.axes = {modelAxis(bothModels())};
    return {grid};
}

std::vector<Workload>
fig5Suite(const RunContext &ctx)
{
    std::vector<Workload> suite;
    suite.push_back(
        buildWorkload("tomcatv", std::max(1, ctx.scale / 4)));
    return suite;
}

void
fig5Print(const RunContext &,
          const std::vector<ExperimentResult> &results)
{
    std::vector<std::vector<double>> curves;
    for (const ExperimentResult &er : results) {
        const auto density =
            er.suite.runs()[0]
                .proc.live[int(RegClass::Fp)][int(
                    LiveLevel::PreciseLive)]
                .normalized();
        curves.push_back(coverageCurve(density));
    }

    std::printf("%-10s %10s %10s\n", "registers", "precise",
                "imprecise");
    const std::size_t len =
        std::max(curves[0].size(), curves[1].size());
    for (std::size_t r = 0; r < len + 20; r += 20) {
        const auto at = [&](const std::vector<double> &c) {
            return r < c.size() ? c[r] : 1.0;
        };
        std::printf("%-10zu %9.1f%% %9.1f%%\n", r,
                    100.0 * at(curves[0]), 100.0 * at(curves[1]));
    }
    std::printf("\npaper reference: imprecise reaches 100%% coverage "
                "near ~130 registers while precise\nneeds ~500, with "
                "a flat (bimodal) stretch between ~150 and ~400.\n");
}

// ------------------------------------------------------------------ fig6

std::vector<GridDef>
fig6Grids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {widthAxis({4, 8}), regsAxis(paperRegs()),
                 modelAxis(bothModels())};
    return {grid};
}

void
fig6Print(const RunContext &,
          const std::vector<ExperimentResult> &results)
{
    std::size_t k = 0;
    for (const int width : {4, 8}) {
        std::printf("\n--- %d-way issue, DQ=%d ---\n", width,
                    width == 4 ? 32 : 64);
        std::printf("%5s | %8s %8s | %9s %9s\n", "regs", "IPC(prec)",
                    "IPC(impr)", "nofree(p)", "nofree(i)");
        for (const int regs : kPaperRegSweep) {
            const SuiteResult &prec = results[k++].suite;
            const SuiteResult &impr = results[k++].suite;
            std::printf("%5d | %8.2f %8.2f | %8.1f%% %8.1f%%\n", regs,
                        prec.avgCommitIpc(), impr.avgCommitIpc(),
                        prec.avgNoFreeRegPct(),
                        impr.avgNoFreeRegPct());
        }
    }
    std::printf("\npaper reference (4-way): IPC climbs from ~1.9 at "
                "32 regs to ~2.4-2.5 saturating near 80;\n(8-way): "
                "from ~2 to ~3.4-3.8 saturating near 128; imprecise "
                ">= precise throughout, converging\nat large sizes; "
                "no-free-register time falls from >50%% toward 0.\n");
    printStallSummary(results);
}

// ------------------------------------------------------------------ fig7

std::vector<GridDef>
fig7Grids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {modelAxis({ExceptionModel::Imprecise,
                            ExceptionModel::Precise}),
                 widthAxis({4, 8}), regsAxis(paperRegs()),
                 cacheAxis(allCaches())};
    return {grid};
}

void
fig7Print(const RunContext &,
          const std::vector<ExperimentResult> &results)
{
    std::size_t k = 0;
    for (const auto model :
         {ExceptionModel::Imprecise, ExceptionModel::Precise}) {
        std::printf("\n=== (%s exceptions) ===\n",
                    exceptionModelName(model));
        for (const int width : {4, 8}) {
            std::printf("\n--- %d-way issue, DQ=%d ---\n", width,
                        width == 4 ? 32 : 64);
            std::printf("%5s | %8s %12s %8s\n", "regs", "perfect",
                        "lockup-free", "lockup");
            for (const int regs : kPaperRegSweep) {
                std::printf("%5d |", regs);
                for (const CacheKind kind : allCaches()) {
                    std::printf(" %*.2f",
                                kind == CacheKind::LockupFree ? 12 : 8,
                                results[k++].suite.avgCommitIpc());
                }
                std::printf("\n");
            }
        }
    }
    std::printf("\npaper reference: lockup-free ~= perfect >> lockup "
                "at every size; e.g. the 8-way\nimprecise curves "
                "saturate at ~96 registers for every memory model.\n");
    printStallSummary(results);
}

// ------------------------------------------------------------------ fig8

std::vector<GridDef>
fig8Grids()
{
    GridDef grid;
    grid.namePrefix = "compress";
    grid.base = paperConfig(4, 2048);
    grid.axes = {cacheAxis(allCaches())};
    return {grid};
}

std::vector<Workload>
fig8Suite(const RunContext &ctx)
{
    std::vector<Workload> suite;
    suite.push_back(buildWorkload("compress", ctx.scale));
    return suite;
}

void
fig8Print(const RunContext &,
          const std::vector<ExperimentResult> &results)
{
    std::vector<std::vector<double>> curves;
    for (const auto &res : results)
        curves.push_back(coverageCurve(
            res.suite.runs()[0]
                .proc.live[int(RegClass::Int)][int(
                    LiveLevel::PreciseLive)]
                .normalized()));

    std::printf("%-10s %10s %12s %10s\n", "registers", "perfect",
                "lockup-free", "lockup");
    std::size_t len = 0;
    for (const auto &c : curves)
        len = std::max(len, c.size());
    for (std::size_t r = 30; r < len + 5; r += 5) {
        const auto at = [&](const std::vector<double> &c) {
            return r < c.size() ? c[r] : 1.0;
        };
        std::printf("%-10zu %9.1f%% %11.1f%% %9.1f%%\n", r,
                    100.0 * at(curves[0]), 100.0 * at(curves[1]),
                    100.0 * at(curves[2]));
    }
    std::printf("\npaper reference: the lockup-free curve lies "
                "rightmost (more registers, wider spread);\nthe "
                "lockup curve concentrates between ~55 and ~75 "
                "registers; perfect needs the fewest.\n");
    printStallSummary(results);
}

// ----------------------------------------------------------------- fig10

std::vector<GridDef>
fig10Grids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {widthAxis({4, 8}), regsAxis(paperRegs()),
                 modelAxis(bothModels())};
    return {grid};
}

void
fig10Print(const RunContext &,
           const std::vector<ExperimentResult> &results)
{
    double best_bips[2] = {0.0, 0.0};
    int wi = 0;
    std::size_t k = 0;
    for (const int width : {4, 8}) {
        std::printf("\n--- %d-way issue, DQ=%d ---\n", width,
                    width == 4 ? 32 : 64);
        std::printf("%5s | %8s %8s | %10s %10s | %10s %10s\n", "regs",
                    "tInt(ns)", "tFp(ns)", "IPC(prec)", "IPC(impr)",
                    "BIPS(prec)", "BIPS(impr)");
        for (const int regs : kPaperRegSweep) {
            const double t_int =
                regFileTiming(intRegFileGeometry(width, regs)).cycleNs;
            const double t_fp =
                regFileTiming(fpRegFileGeometry(width, regs)).cycleNs;
            double ipc[2];
            for (int m = 0; m < 2; ++m)
                ipc[m] = results[k++].suite.avgCommitIpc();
            const double bips_p = bipsEstimate(ipc[0], t_int);
            const double bips_i = bipsEstimate(ipc[1], t_int);
            best_bips[wi] =
                std::max({best_bips[wi], bips_p, bips_i});
            std::printf("%5d | %8.3f %8.3f | %10.2f %10.2f | %10.2f "
                        "%10.2f\n",
                        regs, t_int, t_fp, ipc[0], ipc[1], bips_p,
                        bips_i);
        }
        ++wi;
    }
    std::printf("\nbest BIPS: 4-way %.2f, 8-way %.2f -> 8-way gain "
                "%.0f%%\n",
                best_bips[0], best_bips[1],
                100.0 * (best_bips[1] / best_bips[0] - 1.0));
    std::printf("paper reference: both widths peak at moderate "
                "register counts; the models differ only\nat small "
                "files (converging past ~80/160 regs); the 8-way "
                "machine's best BIPS is only ~20%%\nabove the "
                "4-way's because its register file cycle time is so "
                "much longer.\n");
}

// ------------------------------------------------------------- ablations

std::vector<GridDef>
ablationsGrids()
{
    GridDef variants;
    variants.base = paperConfig(4, 128);
    variants.axes = {variantAxis(
        "variant",
        {{"baseline (paper model)", [](CoreConfig &) {}},
         {"in-order branches",
          [](CoreConfig &c) { c.inOrderBranches = true; }},
         {"execute-time bpred history",
          [](CoreConfig &c) { c.speculativeHistoryUpdate = false; }},
         {"no store->load forwarding",
          [](CoreConfig &c) { c.storeToLoadForwarding = false; }},
         {"split dispatch queues",
          [](CoreConfig &c) { c.splitDispatchQueues = true; }}})};

    GridDef lifetime;
    lifetime.namePrefix = "lifetime";
    lifetime.base = paperConfig(4, 80);
    lifetime.axes = {modelAxis(bothModels()), regsAxis({80})};
    return {variants, lifetime};
}

void
ablationsPrint(const RunContext &,
               const std::vector<ExperimentResult> &results)
{
    std::printf("\n4-way issue, DQ=32, 128 registers, lockup-free "
                "cache\n");
    std::printf("%-28s %7s %7s %9s\n", "variant", "issIPC", "cmtIPC",
                "mispred%");
    for (std::size_t v = 0; v < 5; ++v) {
        const ExperimentResult &er = results[v];
        const SuiteResult &res = er.suite;
        double mispred = 0.0;
        for (const auto &r : res.runs())
            mispred += r.mispredictRate();
        mispred /= double(res.runs().size());
        std::printf("%-28s %7.2f %7.2f %8.1f%%\n",
                    er.spec.name.c_str(), res.avgIssueIpc(),
                    res.avgCommitIpc(), 100.0 * mispred);
    }
    std::printf("expected: in-order branches trade prediction "
                "accuracy against IPC (the paper kept\nout-of-order "
                "execution); execute-time history raises "
                "mispredict%%; splitting the\nqueue 2:1:1 costs IPC "
                "on unbalanced mixes (the paper kept one unified "
                "queue).\n");

    const ExperimentResult &precise = results[5];
    const ExperimentResult &imprecise = results[6];
    std::printf("\nmean integer-register lifetime (cycles from "
                "allocation to free), 80 registers:\n");
    std::printf("%-10s %10s %10s\n", "bench", "precise", "imprecise");
    for (std::size_t i = 0; i < precise.suite.runs().size(); ++i) {
        const auto mean_of = [&](const ExperimentResult &er) {
            return er.suite.runs()[i]
                .lifetime[int(RegClass::Int)]
                .mean();
        };
        std::printf("%-10s %10.1f %10.1f\n",
                    precise.suite.runs()[i].workload.c_str(),
                    mean_of(precise), mean_of(imprecise));
    }
    std::printf("expected: imprecise lifetimes shorter everywhere "
                "(paper Section 3.2).\n");
    printStallSummary(results);
}

// ------------------------------------------------------------ ext_classic

std::vector<GridDef>
extClassicGrids()
{
    GridDef sweep;
    sweep.base = paperConfig(4, 2048);
    sweep.axes = {regsAxis({32, 48, 64, 80, 96, 128, 256})};

    GridDef pressure;
    pressure.base = paperConfig(4, 2048);
    pressure.axes = {modelAxis(bothModels()), regsAxis({48})};
    return {sweep, pressure};
}

std::vector<Workload>
extClassicSuite(const RunContext &)
{
    return classicWorkloads();
}

void
extClassicPrint(const RunContext &,
                const std::vector<ExperimentResult> &results)
{
    const auto &kernels = results[0].suite.runs();
    std::printf("\nper-kernel commit IPC, 4-way, DQ=32, lockup-free\n");
    std::printf("%9s |", "");
    for (const SimResult &r : kernels)
        std::printf(" %9s", r.workload.c_str());
    std::printf(" | %7s\n", "average");
    const int sweep_regs[] = {32, 48, 64, 80, 96, 128, 256};
    for (std::size_t ri = 0; ri < 7; ++ri) {
        std::printf("%4d regs |", sweep_regs[ri]);
        double sum = 0.0;
        for (const SimResult &r : results[ri].suite.runs()) {
            std::printf(" %9.2f", r.commitIpc());
            sum += r.commitIpc();
        }
        std::printf(" | %7.2f\n", sum / double(kernels.size()));
    }

    const ExperimentResult &precise = results[7];
    const ExperimentResult &imprecise = results[8];
    std::printf("\nprecise vs imprecise at the pressure point "
                "(48 regs):\n");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const double p = precise.suite.runs()[i].commitIpc();
        const double im = imprecise.suite.runs()[i].commitIpc();
        std::printf("%-9s precise %5.2f  imprecise %5.2f  (%+5.1f%%)\n",
                    kernels[i].workload.c_str(), p, im,
                    100.0 * (im / p - 1.0));
    }
    std::printf("\nexpected: the same saturation shape as Figure 6 on "
                "workloads the paper never saw,\nwith the imprecise "
                "advantage confined to the small-file regime.\n");
}

// --------------------------------------------------------------- ext_mshr

std::vector<GridDef>
extMshrGrids()
{
    std::vector<AxisValue> variants;
    variants.push_back({"lockup", [](CoreConfig &c) {
                            c.cacheKind = CacheKind::Lockup;
                        }});
    for (const std::uint32_t mshrs : {1u, 2u, 4u, 8u, 16u, 0u}) {
        variants.push_back(
            {mshrs == 0 ? "mshr-unlimited"
                        : "mshr" + std::to_string(mshrs),
             [mshrs](CoreConfig &c) {
                 c.dcache.maxOutstandingMisses = mshrs;
             }});
    }
    GridDef grid;
    grid.base = paperConfig(4, 128);
    grid.axes = {widthAxis({4, 8}),
                 variantAxis("cache", std::move(variants))};
    return {grid};
}

void
extMshrPrint(const RunContext &,
             const std::vector<ExperimentResult> &results)
{
    std::size_t k = 0;
    for (const int width : {4, 8}) {
        std::printf("\n--- %d-way issue, DQ=%d, 128 registers ---\n",
                    width, width == 4 ? 32 : 64);
        std::printf("%10s %7s %14s\n", "MSHRs", "cmtIPC",
                    "rejections");

        // The blocking cache as the floor of the design space.
        {
            const SuiteResult &res = results[k++].suite;
            std::printf("%10s %7.2f %14s\n", "(lockup)",
                        res.avgCommitIpc(), "-");
        }
        for (const std::uint32_t mshrs : {1u, 2u, 4u, 8u, 16u, 0u}) {
            const SuiteResult &res = results[k++].suite;
            std::uint64_t rejections = 0;
            for (const auto &r : res.runs())
                rejections += r.dcache.mshrRejections;
            if (mshrs == 0) {
                std::printf("%10s %7.2f %14llu\n", "unlimited",
                            res.avgCommitIpc(),
                            (unsigned long long)rejections);
            } else {
                std::printf("%10u %7.2f %14llu\n", mshrs,
                            res.avgCommitIpc(),
                            (unsigned long long)rejections);
            }
        }
    }
    std::printf("\nexpected: IPC climbs steeply from 1 MSHR and "
                "saturates within a few entries —\nmost of the "
                "paper's 'aggressive non-blocking' benefit comes from "
                "a handful of\noutstanding misses; rejections fall to "
                "zero as the bound rises.\n");
}

// -------------------------------------------------------- ext_writebuffer

std::vector<GridDef>
extWriteBufferGrids()
{
    GridDef grid;
    grid.base = paperConfig(4, 128);
    grid.axes = {writeBufferDrainAxis({8, 4}),
                 writeBufferAxis({1, 2, 4, 8, 16, 0})};
    return {grid};
}

void
extWriteBufferPrint(const RunContext &,
                    const std::vector<ExperimentResult> &results)
{
    std::size_t k = 0;
    for (const Cycle drain : {8, 4}) {
        std::printf("\n--- 4-way, DQ=32, 128 regs, one store drains "
                    "every %llu cycles ---\n",
                    (unsigned long long)drain);
        std::printf("%10s %7s %12s %14s\n", "entries", "cmtIPC",
                    "stall cyc", "p90 live int");
        for (const std::uint32_t entries : {1u, 2u, 4u, 8u, 16u, 0u}) {
            const SuiteResult &res = results[k++].suite;
            std::uint64_t stalls = 0;
            for (const auto &r : res.runs())
                stalls += r.proc.writeBufferStallCycles;
            const auto p90 = res.livePercentile(
                RegClass::Int, LiveLevel::PreciseLive, 0.9);
            if (entries == 0) {
                std::printf("%10s %7.2f %12s %14llu\n",
                            "unlimited", res.avgCommitIpc(), "-",
                            (unsigned long long)p90);
            } else {
                std::printf("%10u %7.2f %12llu %14llu\n", entries,
                            res.avgCommitIpc(),
                            (unsigned long long)stalls,
                            (unsigned long long)p90);
            }
        }
    }
    std::printf("\nexpected: with a fast drain the paper's "
                "assumption is nearly free beyond a few\nentries; "
                "with a slow drain, small buffers stall commit and "
                "keep more registers live.\n");
}

// ------------------------------------------------------------ ext_variance

constexpr int kVarianceSeeds = 5;

std::vector<GridDef>
extVarianceGrids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {widthAxis({4}), regsAxis({2048})};
    return {grid};
}

std::vector<Workload>
extVarianceSuite(const RunContext &ctx)
{
    std::vector<Workload> suite;
    for (const auto &spec : spec92Specs()) {
        for (int seed = 0; seed < kVarianceSeeds; ++seed) {
            suite.push_back(buildWorkload(spec.name, ctx.scale,
                                          std::uint64_t(seed)));
        }
    }
    return suite;
}

struct VarianceSeries
{
    std::vector<double> v;
    void add(double x) { v.push_back(x); }
    double
    mean() const
    {
        double s = 0;
        for (double x : v)
            s += x;
        return s / double(v.size());
    }
    double
    spread() const
    {
        const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
        return *hi - *lo;
    }
};

void
extVariancePrint(const RunContext &,
                 const std::vector<ExperimentResult> &results)
{
    const auto &runs = results[0].suite.runs();
    std::printf("\n4-way, DQ=32, 2048 regs, lockup-free; %d data "
                "seeds per benchmark\n",
                kVarianceSeeds);
    std::printf("%-10s | %6s %7s | %6s %7s | %6s %7s\n", "bench",
                "IPC", "+/-", "miss%", "+/-", "cbr%", "+/-");
    for (std::size_t b = 0; b * kVarianceSeeds < runs.size(); ++b) {
        VarianceSeries ipc, miss, cbr;
        for (int seed = 0; seed < kVarianceSeeds; ++seed) {
            const SimResult &r = runs[b * kVarianceSeeds +
                                      std::size_t(seed)];
            ipc.add(r.commitIpc());
            miss.add(100.0 * r.loadMissRate);
            cbr.add(100.0 * r.mispredictRate());
        }
        std::printf("%-10s | %6.2f %7.2f | %6.1f %7.1f | %6.1f "
                    "%7.1f\n",
                    runs[b * kVarianceSeeds].workload.c_str(),
                    ipc.mean(), ipc.spread() / 2, miss.mean(),
                    miss.spread() / 2, cbr.mean(), cbr.spread() / 2);
    }
    std::printf("\nexpected: spreads well under the kernel-to-paper "
                "differences recorded in\nEXPERIMENTS.md — the "
                "signatures are properties of the kernels, not of one "
                "lucky seed.\n");
}

// ------------------------------------------------------------- ext_bounds

std::vector<GridDef>
extBoundsGrids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {regsAxis(paperRegs())};
    return {grid};
}

void
extBoundsPrint(const RunContext &ctx,
               const std::vector<ExperimentResult> &results)
{
    // Recompute the static oracle for the same nine programs the grid
    // simulated (the suite builder is deterministic in ctx.scale).
    const analysis::MachineLimits limits =
        analysis::MachineLimits::forIssueWidth(4);
    const std::vector<Workload> suite = buildSpec92Suite(ctx.scale);
    std::vector<analysis::BoundsReport> bounds;
    bounds.reserve(suite.size());
    for (const Workload &w : suite)
        bounds.push_back(analysis::computeBounds(w.program, limits));

    const std::vector<int> sweep = paperRegs();
    const std::size_t nregs = sweep.size();
    int gate_misses = 0;

    std::printf("\n--- 4-way, DQ=32 ---\n");
    std::printf("%-10s | %6s %6s | %4s %4s | %6s | %8s %5s | %4s\n",
                "bench", "bound", "steady", "mlI", "mlF", "minRegs",
                "IPC@256", "knee", "ok");
    for (std::size_t b = 0; b < suite.size(); ++b) {
        const analysis::BoundsReport &br = bounds[b];
        const auto ipc_at = [&](std::size_t r) {
            return results[r].suite.runs()[b].commitIpc();
        };
        const double ipc_max = ipc_at(nregs - 1);
        int knee = sweep.back();
        for (std::size_t r = 0; r < nregs; ++r) {
            if (ipc_at(r) >= 0.98 * ipc_max) {
                knee = sweep[r];
                break;
            }
        }
        const bool ok = ipc_max <= br.ipcBound * 1.05 + 0.05;
        if (!ok)
            ++gate_misses;
        std::printf("%-10s | %6.2f %6.2f | %4d %4d | %6d | %8.2f %5d | "
                    "%4s\n",
                    br.program.c_str(), br.ipcBound, br.steadyIpcBound,
                    br.maxLive[0], br.maxLive[1],
                    std::max(br.minRegsEstimate[0],
                             br.minRegsEstimate[1]),
                    ipc_max, knee, ok ? "yes" : "NO");
    }
    if (gate_misses > 0) {
        std::printf("\nWARNING: %d kernel(s) exceeded their static "
                    "IPC bound — simulator bug.\n",
                    gate_misses);
    }
    std::printf("\nbound  = whole-program static IPC upper bound; "
                "steady = innermost-loop\nsteady-state bound; mlI/mlF "
                "= static MaxLive per class; minRegs = Little's-law\n"
                "register estimate; knee = smallest size within 2%% "
                "of the 256-register IPC.\nexpected: every simulated "
                "IPC respects its bound, and the\nregister knee lands near the paper's \"~80-96 "
                "registers suffice\" conclusion —\nthe static "
                "estimate brackets it from below.\n");
    printStallSummary(results);
}

// --------------------------------------------------------- ext_predictors

std::vector<GridDef>
extPredictorsGrids()
{
    GridDef grid;
    grid.base = paperConfig(4, 2048);
    grid.axes = {
        predictorAxis(predictorSpecs()),
        resultBusAxis({0, 2}),
        regsAxis(paperRegs())};
    return {grid};
}

void
extPredictorsPrint(const RunContext &,
                   const std::vector<ExperimentResult> &results)
{
    const std::vector<int> sweep = paperRegs();
    const std::size_t nregs = sweep.size();
    const std::vector<std::string> &preds = predictorSpecs();
    constexpr int kBuses[2] = {0, 2};

    // Row-major over (predictor, buses, regs) as declared.
    const auto index = [&](std::size_t p, int b, std::size_t r) {
        return (p * 2 + std::size_t(b)) * nregs + r;
    };
    // Smallest file within 2% of the 256-register IPC — the same
    // knee definition ext_bounds uses, so the register-pressure
    // conclusions line up across experiments.
    const auto knee_of = [&](std::size_t p, int b) {
        const double ipc_max =
            results[index(p, b, nregs - 1)].suite.avgCommitIpc();
        for (std::size_t r = 0; r < nregs; ++r) {
            if (results[index(p, b, r)].suite.avgCommitIpc() >=
                0.98 * ipc_max) {
                return sweep[r];
            }
        }
        return sweep.back();
    };

    std::printf("\n4-way, DQ=32, lockup-free; registers swept "
                "%d..%d\n",
                sweep.front(), sweep.back());
    std::printf("%-10s %6s | %8s %9s %11s %5s\n", "predictor", "buses",
                "IPC@256", "mispred%", "result_bus%", "knee");
    for (std::size_t p = 0; p < preds.size(); ++p) {
        for (int b = 0; b < 2; ++b) {
            const ExperimentResult &top = results[index(p, b, nregs - 1)];
            double mispred = 0.0;
            for (const auto &r : top.suite.runs())
                mispred += r.mispredictRate();
            mispred /= double(top.suite.runs().size());
            std::printf("%-10s %6s | %8.2f %8.1f%% %10.2f%% %5d\n",
                        preds[p].c_str(),
                        kBuses[b] == 0
                            ? "inf"
                            : std::to_string(kBuses[b]).c_str(),
                        top.suite.avgCommitIpc(), 100.0 * mispred,
                        top.suite.avgCausePct(CycleCause::ResultBus),
                        knee_of(p, b));
        }
    }

    std::printf("\nregister-pressure knee vs %s/unlimited buses "
                "(%d regs):\n",
                preds[0].c_str(), knee_of(0, 0));
    const int knee0 = knee_of(0, 0);
    for (std::size_t p = 0; p < preds.size(); ++p) {
        for (int b = 0; b < 2; ++b) {
            const int knee = knee_of(p, b);
            std::printf("  %-10s %9s: %3d regs (%+d)\n",
                        preds[p].c_str(),
                        kBuses[b] == 0 ? "unlimited" : "2 buses",
                        knee, knee - knee0);
        }
    }
    std::printf("\nexpected: predictor choice moves mispredict%%\nand IPC but "
                "barely moves the knee — register pressure is set by "
                "in-flight lifetimes,\nnot prediction accuracy — "
                "while a 2-bus writeback constraint adds result_bus "
                "stalls\nand lowers the IPC ceiling, pulling the "
                "2%%-of-max knee one sweep step left.\n");
    printStallSummary(results);
}

// ------------------------------------------------------ ext_critical_paths

int
runCriticalPaths(const RunContext &)
{
    std::printf("==========================================================="
                "===\n"
                "Critical-path structures vs the register file "
                "(paper Section 3.4)\n"
                "============================================================"
                "==\n");
    std::printf("\n%5s %5s %5s | %8s %8s %8s | %7s %7s\n", "width",
                "DQ", "regs", "RF(ns)", "DQ(ns)", "REN(ns)", "DQ/RF",
                "REN/RF");
    for (const int width : {4, 8}) {
        const int dq = width == 4 ? 32 : 64;
        for (const int regs : {48, 80, 128, 256}) {
            const double rf =
                regFileTiming(intRegFileGeometry(width, regs)).cycleNs;
            const double dqt =
                dispatchQueueTiming({dq, width, 8}).cycleNs;
            const double ren =
                renameTiming({regs, width, 32}).cycleNs;
            std::printf("%5d %5d %5d | %8.3f %8.3f %8.3f | %7.2f "
                        "%7.2f\n",
                        width, dq, regs, rf, dqt, ren, dqt / rf,
                        ren / rf);
        }
    }
    std::printf("\nexpected: going from the 4-way to the 8-way design "
                "point slows all three\nstructures together (ratios "
                "stay in a narrow band), supporting the paper's\n"
                "machine-cycle-time scaling assumption; the dispatch "
                "queue's wakeup wire grows\nwith its entry count just "
                "as the register file's bitline grows with "
                "registers.\n");
    return 0;
}

} // namespace

std::vector<ExperimentDef>
makeExperimentDefs()
{
    return {
        {"table1",
         "Table 1: dynamic statistics per benchmark "
         "(paper: Farkas/Jouppi/Chow HPCA-2)",
         "per-benchmark dynamic statistics, 4/8-way, 2048 registers",
         table1Grids, nullptr, table1Print, true, nullptr},
        {"fig3",
         "Figure 3: IPC and 90th-pct live registers vs "
         "dispatch-queue size",
         "IPC and 90th-pct live registers vs dispatch-queue size",
         fig3Grids, nullptr, fig3Print, false, nullptr},
        {"fig4",
         "Figure 4: average register-usage coverage, precise vs "
         "imprecise",
         "register-usage run-time coverage, precise vs imprecise",
         fig4Grids, nullptr, fig4Print, false, nullptr},
        {"fig5",
         "Figure 5: tomcatv fp-register coverage, precise vs "
         "imprecise (8-way)",
         "tomcatv fp-register coverage, precise vs imprecise",
         fig5Grids, fig5Suite, fig5Print, false, nullptr},
        {"fig6",
         "Figure 6: commit IPC and register-pressure vs register "
         "file size",
         "commit IPC and register pressure vs register-file size",
         fig6Grids, nullptr, fig6Print, true, nullptr},
        {"fig7",
         "Figure 7: commit IPC for three cache organizations vs "
         "registers",
         "commit IPC for perfect/lockup-free/lockup caches vs "
         "registers",
         fig7Grids, nullptr, fig7Print, true, nullptr},
        {"fig8",
         "Figure 8: compress integer-register coverage for three "
         "caches",
         "compress integer-register coverage under the three caches",
         fig8Grids, fig8Suite, fig8Print, true, nullptr},
        {"fig10",
         "Figure 10: register file timing and estimated machine "
         "BIPS",
         "register-file cycle times and estimated machine BIPS",
         fig10Grids, nullptr, fig10Print, false, nullptr},
        {"ablations",
         "Ablations: machine-model design choices "
         "(paper Sections 2-3)",
         "machine-model design-choice ablations + register lifetimes",
         ablationsGrids, nullptr, ablationsPrint, true, nullptr},
        {"ext_classic",
         "Extension: register sizing on the classic-kernel family",
         "register sizing cross-checked on the classic kernels",
         extClassicGrids, extClassicSuite, extClassicPrint, false,
         nullptr},
        {"ext_mshr",
         "Extension: lockup-free cache with bounded MSHRs",
         "bounded-MSHR sweep from the blocking cache to the paper's",
         extMshrGrids, nullptr, extMshrPrint, false, nullptr},
        {"ext_writebuffer",
         "Extension: finite write buffer (the paper assumes an "
         "infinite, free one)",
         "finite write-buffer sweep vs the paper's free-store "
         "assumption",
         extWriteBufferGrids, nullptr, extWriteBufferPrint, false,
         nullptr},
        {"ext_variance",
         "Extension: run-to-run variation over data seeds",
         "Table-1 signature stability over data seeds",
         extVarianceGrids, extVarianceSuite, extVariancePrint, false,
         nullptr},
        {"ext_bounds",
         "Extension: static dataflow bounds vs simulated IPC and "
         "register knee",
         "static IPC/MaxLive oracle cross-checked against simulation",
         extBoundsGrids, nullptr, extBoundsPrint, true, nullptr},
        {"ext_predictors",
         "Extension: predictor backends and result-bus contention vs "
         "register pressure",
         "predictor/result-bus sweep on the fig6/fig7 register "
         "apparatus",
         extPredictorsGrids, nullptr, extPredictorsPrint, true,
         nullptr},
        {"ext_critical_paths", "",
         "dispatch-queue/rename/register-file cycle-time scaling "
         "check",
         nullptr, nullptr, nullptr, false, runCriticalPaths},
        {"simspeed", "",
         "tracked simulator-speed benchmark (full detail vs "
         "sampled)",
         nullptr, nullptr, nullptr, false, runSimspeed},
        {"sampling_validate", "",
         "sampled-mode accuracy check: 95% CI vs full-detail IPC "
         "on every workload",
         nullptr, nullptr, nullptr, false, runSamplingValidate},
    };
}

} // namespace detail
} // namespace exp
} // namespace drsim
