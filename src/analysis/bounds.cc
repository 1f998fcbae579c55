#include "analysis/bounds.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/cfg.hh"
#include "common/json.hh"
#include "common/stats.hh"

namespace drsim {
namespace analysis {

namespace {

/** Same loop weighting the mix estimator uses: 100^min(depth, 3). */
std::uint64_t
loopWeight(int depth)
{
    std::uint64_t w = 1;
    for (int i = 0; i < std::min(depth, 3); ++i)
        w *= 100;
    return w;
}

/** Issue-resource initiation interval over the must-execute body. */
double
resourceII(const ProgramCfg &cfg, const NaturalLoop &loop,
           const MachineLimits &lim)
{
    int total = 0, int_ops = 0, fp_ops = 0, div_ops = 0, div_lat = 0,
        mem_ops = 0, ctrl_ops = 0;
    for (const int b : loop.mustBody) {
        for (const Instruction &inst : cfg.program().block(b).insts) {
            ++total;
            switch (inst.cls()) {
              case OpClass::IntAlu:
              case OpClass::IntMult:
                ++int_ops;
                break;
              case OpClass::FpAdd:
                ++fp_ops;
                break;
              case OpClass::FpDiv:
                ++fp_ops;
                ++div_ops;
                div_lat += opTraits(inst.op).latency;
                break;
              case OpClass::MemLoad:
              case OpClass::MemStore:
                ++mem_ops;
                break;
              case OpClass::CtrlCond:
              case OpClass::CtrlUncond:
                ++ctrl_ops;
                break;
            }
        }
    }
    double ii = double(total) / double(lim.issueWidth);
    ii = std::max(ii, double(int_ops) / double(lim.intIssue));
    ii = std::max(ii, double(fp_ops) / double(lim.fpIssue));
    ii = std::max(ii, double(div_ops) / double(lim.fpDivIssue));
    // The dividers are unpipelined: each divide occupies a unit for
    // its full latency, so per iteration they demand div_lat cycles
    // of divider service spread over fpDividers units.
    ii = std::max(ii, double(div_lat) / double(lim.fpDividers));
    ii = std::max(ii, double(mem_ops) / double(lim.memIssue));
    ii = std::max(ii, double(ctrl_ops) / double(lim.ctrlIssue));
    return ii;
}

/** Longest def-to-last-use distance (in instructions) for node @p i
 *  of one iteration of @p graph; -1 when nothing consumes it. */
int
lastUseDistance(const LoopDepGraph &graph, int i)
{
    const int n = int(graph.nodes.size());
    int best = -1;
    for (const DepEdge &e : graph.edges) {
        if (e.from != i)
            continue;
        const int d = e.distance == 0 ? e.to - i : n - i + e.to;
        best = std::max(best, d);
    }
    return best;
}

/** Local def-to-last-use distances within one straight-line block. */
void
blockLiveRanges(const std::vector<Instruction> &insts,
                std::uint64_t weight, Histogram hist[kNumRegClasses])
{
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const RegId dest = insts[i].dest;
        if (!dest.renamed())
            continue;
        int last_use = -1;
        for (std::size_t j = i + 1; j < insts.size(); ++j) {
            if ((insts[j].src1 == dest) || (insts[j].src2 == dest))
                last_use = int(j);
            if (insts[j].dest == dest)
                break;
        }
        if (last_use >= 0) {
            hist[int(dest.cls)].addSamples(
                std::uint64_t(last_use - int(i)), weight);
        }
    }
}

LiveRangeStats
summarize(const Histogram &hist)
{
    LiveRangeStats s;
    s.samples = hist.totalSamples();
    if (s.samples == 0)
        return s;
    s.mean = hist.mean();
    s.p50 = hist.percentile(0.5);
    s.p90 = hist.percentile(0.9);
    s.max = hist.maxValue();
    return s;
}

} // namespace

MachineLimits
MachineLimits::forIssueWidth(int width)
{
    MachineLimits lim;
    lim.issueWidth = width;
    lim.intIssue = width;
    lim.fpIssue = std::max(1, width / 2);
    lim.fpDivIssue = std::max(1, width / 4);
    lim.memIssue = std::max(1, width / 2);
    lim.ctrlIssue = std::max(1, width / 4);
    lim.fpDividers = std::max(1, width / 4);
    return lim;
}

BoundsReport
computeBounds(const Program &program, const MachineLimits &limits)
{
    BoundsReport rep;
    rep.program = program.name();
    rep.limits = limits;

    const ProgramCfg cfg(program);
    if (!cfg.valid())
        return rep;
    rep.valid = true;

    const LivenessResult live = computeLiveness(cfg);
    const MaxLiveResult ml = computeMaxLive(cfg, live);
    for (int c = 0; c < kNumRegClasses; ++c)
        rep.maxLive[c] = ml.perClass[c];
    rep.criticalPathCycles = dataflowCriticalPath(cfg);

    const std::vector<int> idom = computeIdoms(cfg);
    const std::vector<NaturalLoop> loops = findNaturalLoops(cfg, idom);

    Histogram range_hist[kNumRegClasses];
    // Weighted op mix of the steady-state (loop) code, for the
    // Little's-law register estimate below.
    double mix_total_w = 0.0;
    double mix_writer_w[kNumRegClasses] = {0.0, 0.0};
    double mix_lat_w[kNumRegClasses] = {0.0, 0.0};

    std::vector<std::uint8_t> bounded_block(cfg.nodes().size(), 0);
    for (const NaturalLoop &loop : loops) {
        LoopBound lb;
        lb.header = loop.header;
        lb.depth = loop.depth;
        lb.innermost = loop.innermost;
        lb.reducible = loop.reducible;
        for (const int b : loop.body)
            lb.bodyInsts += int(cfg.program().block(b).insts.size());
        for (const int b : loop.mustBody)
            lb.mustInsts += int(cfg.program().block(b).insts.size());
        const MaxLiveResult loop_ml =
            computeMaxLive(cfg, live, loop.body);
        for (int c = 0; c < kNumRegClasses; ++c)
            lb.maxLive[c] = loop_ml.perClass[c];

        if (loop.innermost && loop.reducible && lb.mustInsts > 0) {
            const LoopDepGraph graph = buildLoopDepGraph(cfg, loop);
            lb.recII = maxCycleRatio(graph);
            lb.resII = resourceII(cfg, loop, limits);
            const double ii = std::max(lb.recII, lb.resII);
            if (ii > 0.0) {
                lb.ipcBound = std::min(double(limits.issueWidth),
                                       double(lb.bodyInsts) / ii);
                rep.steadyIpcBound =
                    std::max(rep.steadyIpcBound, lb.ipcBound);
                for (const int b : loop.body)
                    bounded_block[std::size_t(b)] = 1;
            }

            const std::uint64_t w = loopWeight(loop.depth);
            const int n = int(graph.nodes.size());
            for (int i = 0; i < n; ++i) {
                const DepNode &node = graph.nodes[std::size_t(i)];
                const Instruction &inst =
                    cfg.program().instAt(node.loc);
                mix_total_w += double(w);
                if (inst.writesReg()) {
                    const int c = int(inst.dest.cls);
                    mix_writer_w[c] += double(w);
                    mix_lat_w[c] += double(w) * double(node.latency);
                }
                const int d = lastUseDistance(graph, i);
                if (d >= 0 && inst.writesReg()) {
                    range_hist[int(inst.dest.cls)].addSamples(
                        std::uint64_t(d), w);
                }
            }
        }
        rep.loops.push_back(lb);
    }

    // Straight-line (depth-0) code contributes block-local live
    // ranges at unit weight — the tail of the paper's lifetime
    // distribution, dominated by the loop-weighted mass above.
    bool all_in_bounded_loops = true;
    for (const int b : cfg.rpo()) {
        const auto &insts = cfg.program().block(b).insts;
        if (insts.empty())
            continue;
        if (!bounded_block[std::size_t(b)])
            all_in_bounded_loops = false;
        if (cfg.node(b).loopDepth == 0)
            blockLiveRanges(insts, 1, range_hist);
    }
    for (int c = 0; c < kNumRegClasses; ++c)
        rep.liveRange[c] = summarize(range_hist[c]);

    // The loop bounds constrain the whole run only when no reachable
    // code can commit outside a bounded loop; otherwise the machine
    // can run at full width through the unconstrained region.
    rep.ipcBound = (all_in_bounded_loops && rep.steadyIpcBound > 0.0)
                       ? rep.steadyIpcBound
                       : double(limits.issueWidth);

    // Little's-law register demand: in steady state the file holds
    // the 31 committed architectural values plus (allocation rate x
    // hold time) in-flight ones; hold time ~ producer latency plus a
    // couple of cycles of issue/commit slack.  Heuristic, reported
    // for the co-design screens — never used as a gate.
    double rate = rep.steadyIpcBound;
    if (rate <= 0.0) {
        rate = rep.criticalPathCycles > 0.0
                   ? std::min(double(limits.issueWidth),
                              double(program.numInsts()) /
                                  rep.criticalPathCycles)
                   : double(limits.issueWidth);
        // No loop mix: fall back to the whole program at unit weight.
        for (const int b : cfg.rpo()) {
            for (const Instruction &inst :
                 cfg.program().block(b).insts) {
                mix_total_w += 1.0;
                if (inst.writesReg()) {
                    const int c = int(inst.dest.cls);
                    mix_writer_w[c] += 1.0;
                    mix_lat_w[c] += double(boundLatency(inst.op));
                }
            }
        }
    }
    for (int c = 0; c < kNumRegClasses; ++c) {
        double demand = 0.0;
        if (mix_total_w > 0.0 && mix_writer_w[c] > 0.0) {
            const double frac = mix_writer_w[c] / mix_total_w;
            const double avg_lat = mix_lat_w[c] / mix_writer_w[c];
            demand = rate * frac * (avg_lat + 2.0);
        }
        rep.minRegsEstimate[c] =
            std::max(kNumVirtualRegs,
                     kNumVirtualRegs - 1 + int(std::ceil(demand)));
    }
    return rep;
}

std::string
formatBounds(const BoundsReport &rep)
{
    std::ostringstream os;
    os << "bounds for '" << rep.program << "' (issue width "
       << rep.limits.issueWidth << "):\n";
    if (!rep.valid) {
        os << "  CFG structurally invalid; no bounds computed\n";
        return os.str();
    }
    os << "  static MaxLive:      int " << rep.maxLive[0] << ", fp "
       << rep.maxLive[1] << "\n";
    os << "  critical path:       " << rep.criticalPathCycles
       << " cycles (loops unrolled once)\n";
    os << "  ipc bound:           " << rep.ipcBound
       << " (whole program)";
    if (rep.steadyIpcBound > 0.0)
        os << ", " << rep.steadyIpcBound << " (loop steady-state)";
    os << "\n";
    os << "  min regs estimate:   int " << rep.minRegsEstimate[0]
       << ", fp " << rep.minRegsEstimate[1] << "\n";
    for (int c = 0; c < kNumRegClasses; ++c) {
        const LiveRangeStats &lr = rep.liveRange[c];
        os << "  live-range (" << (c == 0 ? "int" : "fp ") << "):    ";
        if (lr.samples == 0) {
            os << "no ranges\n";
            continue;
        }
        os << "mean " << lr.mean << ", p50 " << lr.p50 << ", p90 "
           << lr.p90 << ", max " << lr.max << " insts\n";
    }
    for (const LoopBound &lb : rep.loops) {
        os << "  loop @ block " << lb.header << " depth " << lb.depth
           << (lb.innermost ? " innermost" : "")
           << (lb.reducible ? "" : " IRREDUCIBLE") << ": body "
           << lb.bodyInsts << " insts (" << lb.mustInsts
           << " per-iteration)";
        if (lb.ipcBound > 0.0) {
            os << ", recII " << lb.recII << ", resII " << lb.resII
               << ", ipc <= " << lb.ipcBound;
        }
        os << ", live int " << lb.maxLive[0] << " fp " << lb.maxLive[1]
           << "\n";
    }
    return os.str();
}

void
writeBounds(json::Writer &w, const BoundsReport &rep)
{
    const auto perClass = [&w](const char *key,
                               const int (&v)[kNumRegClasses]) {
        w.key(key).beginObject();
        w.key("int").value(v[0]);
        w.key("fp").value(v[1]);
        w.endObject();
    };
    w.beginObject();
    w.key("schema").value("drsim-bounds-v1");
    w.key("program").value(rep.program);
    w.key("valid").value(rep.valid);
    w.key("issueWidth").value(rep.limits.issueWidth);
    perClass("maxLive", rep.maxLive);
    w.key("criticalPathCycles").value(rep.criticalPathCycles);
    w.key("ipcBound").value(rep.ipcBound);
    w.key("steadyIpcBound").value(rep.steadyIpcBound);
    perClass("minRegsEstimate", rep.minRegsEstimate);
    w.key("liveRange").beginObject();
    for (int c = 0; c < kNumRegClasses; ++c) {
        const LiveRangeStats &lr = rep.liveRange[c];
        w.key(c == 0 ? "int" : "fp").beginObject();
        w.key("mean").value(lr.mean);
        w.key("p50").value(lr.p50);
        w.key("p90").value(lr.p90);
        w.key("max").value(lr.max);
        w.key("samples").value(lr.samples);
        w.endObject();
    }
    w.endObject();
    w.key("loops").beginArray();
    for (const LoopBound &lb : rep.loops) {
        w.beginObject();
        w.key("header").value(lb.header);
        w.key("depth").value(lb.depth);
        w.key("innermost").value(lb.innermost);
        w.key("reducible").value(lb.reducible);
        w.key("bodyInsts").value(lb.bodyInsts);
        w.key("mustInsts").value(lb.mustInsts);
        w.key("recII").value(lb.recII);
        w.key("resII").value(lb.resII);
        w.key("ipcBound").value(lb.ipcBound);
        perClass("maxLive", lb.maxLive);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
boundsToJson(const BoundsReport &rep)
{
    json::Writer w;
    writeBounds(w, rep);
    return w.str();
}

} // namespace analysis
} // namespace drsim
