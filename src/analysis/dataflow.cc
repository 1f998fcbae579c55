#include "analysis/dataflow.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/logging.hh"

namespace drsim {
namespace analysis {

namespace {

/** Flat 0..63 register number, or -1 for invalid/zero registers. */
int
flatReg(RegId r)
{
    if (!r.renamed())
        return -1;
    return int(r.cls) * 32 + int(r.index);
}

} // namespace

int
regSetCount(RegSet set, RegClass cls)
{
    const RegSet cls_bits = (set >> (std::size_t(cls) * 32u)) &
                            0xffff'ffffull;
    return std::popcount(cls_bits);
}

int
boundLatency(Opcode op)
{
    return std::max(1, opTraits(op).latency);
}

LivenessResult
computeLiveness(const ProgramCfg &cfg, IterOrder order)
{
    const std::size_t n = cfg.nodes().size();
    LivenessResult res;
    res.liveIn.assign(n, 0);
    res.liveOut.assign(n, 0);
    if (!cfg.valid())
        return res;

    // Per-block gen (upward-exposed uses) and kill (definitions).
    std::vector<RegSet> gen(n, 0), kill(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
        for (const Instruction &inst : cfg.program().block(int(b)).insts) {
            gen[b] |= readSet(inst) & ~kill[b];
            kill[b] |= writeSet(inst);
        }
    }

    // A backward problem converges fastest visiting blocks in
    // postorder; the order knob exists so tests can assert the
    // fixpoint itself is iteration-order independent.
    std::vector<int> sweep = cfg.rpo();
    if (order == IterOrder::Forward)
        std::reverse(sweep.begin(), sweep.end());

    bool changed = true;
    while (changed) {
        changed = false;
        ++res.rounds;
        for (const int b : sweep) {
            RegSet out = 0;
            for (const int s : cfg.node(b).succs)
                out |= res.liveIn[std::size_t(s)];
            const RegSet in =
                gen[std::size_t(b)] |
                (out & ~kill[std::size_t(b)]);
            if (out != res.liveOut[std::size_t(b)] ||
                in != res.liveIn[std::size_t(b)]) {
                res.liveOut[std::size_t(b)] = out;
                res.liveIn[std::size_t(b)] = in;
                changed = true;
            }
        }
    }
    return res;
}

MaxLiveResult
computeMaxLive(const ProgramCfg &cfg, const LivenessResult &live,
               const std::vector<int> &blocks)
{
    MaxLiveResult res;
    std::vector<int> scan = blocks;
    if (scan.empty())
        scan = cfg.rpo();

    for (const int b : scan) {
        // Walk the block backward from liveOut so every intra-block
        // program point is observed, not just the boundaries.
        const auto &insts = cfg.program().block(b).insts;
        RegSet cur = live.liveOut[std::size_t(b)];
        const auto observe = [&](RegSet set) {
            for (int c = 0; c < kNumRegClasses; ++c) {
                const int count = regSetCount(set, RegClass(c));
                if (count > res.perClass[c]) {
                    res.perClass[c] = count;
                    res.block[c] = b;
                }
            }
        };
        observe(cur);
        for (std::size_t i = insts.size(); i-- > 0;) {
            const Instruction &inst = insts[i];
            cur = (cur & ~writeSet(inst)) | readSet(inst);
            observe(cur);
        }
    }
    return res;
}

std::vector<int>
computeIdoms(const ProgramCfg &cfg)
{
    const std::size_t n = cfg.nodes().size();
    std::vector<int> idom(n, -1);
    if (!cfg.valid())
        return idom;

    // Unreachable blocks have no RPO position and never participate.
    const auto pos = [&](int b) { return cfg.node(b).rpoIndex; };
    const auto intersect = [&](int a, int b) {
        while (a != b) {
            while (pos(a) > pos(b))
                a = idom[std::size_t(a)];
            while (pos(b) > pos(a))
                b = idom[std::size_t(b)];
        }
        return a;
    };

    idom[std::size_t(cfg.entry())] = cfg.entry();
    bool changed = true;
    while (changed) {
        changed = false;
        for (const int b : cfg.rpo()) {
            if (b == cfg.entry())
                continue;
            int new_idom = -1;
            for (const int p : cfg.node(b).preds) {
                if (idom[std::size_t(p)] < 0)
                    continue; // unreachable or not yet processed
                new_idom = new_idom < 0 ? p : intersect(new_idom, p);
            }
            if (new_idom >= 0 && idom[std::size_t(b)] != new_idom) {
                idom[std::size_t(b)] = new_idom;
                changed = true;
            }
        }
    }
    return idom;
}

bool
dominates(const std::vector<int> &idom, int a, int b)
{
    if (a < 0 || b < 0 || idom[std::size_t(b)] < 0)
        return false;
    while (true) {
        if (b == a)
            return true;
        const int up = idom[std::size_t(b)];
        if (up == b)
            return false; // reached the entry without meeting a
        b = up;
    }
}

std::vector<NaturalLoop>
findNaturalLoops(const ProgramCfg &cfg, const std::vector<int> &idom)
{
    std::vector<NaturalLoop> loops;
    for (const ProgramCfg::Loop &found : cfg.loops()) {
        NaturalLoop loop;
        static_cast<ProgramCfg::Loop &>(loop) = found;
        loop.depth = cfg.node(loop.header).loopDepth;
        for (const int t : loop.tails) {
            loop.reducible =
                loop.reducible && dominates(idom, loop.header, t);
        }
        for (const ProgramCfg::Loop &other : cfg.loops()) {
            if (other.header != loop.header &&
                std::binary_search(loop.body.begin(), loop.body.end(),
                                   other.header)) {
                loop.innermost = false;
            }
        }

        // Must-execute-per-iteration blocks: at the loop's own
        // nesting depth (not buried in an inner loop) and dominating
        // every back-edge tail, so each full iteration passes through
        // them exactly once.  Only meaningful when the loop is
        // reducible — an irreducible region has no such guarantee.
        if (loop.reducible) {
            for (const int b : loop.body) {
                if (cfg.node(b).loopDepth != loop.depth)
                    continue;
                bool must = true;
                for (const int t : loop.tails)
                    must = must && dominates(idom, b, t);
                if (must)
                    loop.mustBody.push_back(b);
            }
            std::sort(loop.mustBody.begin(), loop.mustBody.end(),
                      [&](int a, int b) {
                          return cfg.node(a).rpoIndex <
                                 cfg.node(b).rpoIndex;
                      });
        }
        loops.push_back(std::move(loop));
    }
    return loops;
}

LoopDepGraph
buildLoopDepGraph(const ProgramCfg &cfg, const NaturalLoop &loop)
{
    LoopDepGraph graph;
    if (loop.mustBody.empty())
        return graph;

    // Registers written anywhere in the loop body outside the
    // must-execute blocks: their producer depends on the path taken,
    // so no single dependence edge is guaranteed — contribute none.
    RegSet cond_written = 0;
    for (const int b : loop.body) {
        if (std::find(loop.mustBody.begin(), loop.mustBody.end(), b) !=
            loop.mustBody.end()) {
            continue;
        }
        for (const Instruction &inst : cfg.program().block(b).insts)
            cond_written |= writeSet(inst);
    }

    // Linearize one iteration: the must blocks in reverse postorder.
    for (const int b : loop.mustBody) {
        const auto &insts = cfg.program().block(b).insts;
        for (std::size_t i = 0; i < insts.size(); ++i) {
            DepNode node;
            node.loc = {b, std::int32_t(i)};
            node.op = insts[i].op;
            node.latency = boundLatency(insts[i].op);
            graph.nodes.push_back(node);
        }
    }

    int cur_def[2 * kNumVirtualRegs];
    std::fill(std::begin(cur_def), std::end(cur_def), -1);
    // Reads with no earlier def this iteration: candidates for a
    // loop-carried edge from the previous iteration's final writer.
    std::vector<std::pair<int, int>> carried; // (reg, consumer node)

    int idx = 0;
    for (const int b : loop.mustBody) {
        for (const Instruction &inst : cfg.program().block(b).insts) {
            const RegId srcs[2] = {inst.src1, inst.src2};
            for (const RegId src : srcs) {
                const int r = flatReg(src);
                if (r < 0 || ((cond_written >> r) & 1) != 0)
                    continue;
                if (cur_def[r] >= 0) {
                    graph.edges.push_back(
                        {cur_def[r], idx,
                         graph.nodes[std::size_t(cur_def[r])].latency,
                         0});
                } else {
                    carried.emplace_back(r, idx);
                }
            }
            const int d = flatReg(inst.dest);
            if (d >= 0)
                cur_def[d] = idx;
            ++idx;
        }
    }

    for (const auto &[r, consumer] : carried) {
        if (cur_def[r] < 0)
            continue; // live-in from outside the loop, not a recurrence
        graph.edges.push_back(
            {cur_def[r], consumer,
             graph.nodes[std::size_t(cur_def[r])].latency, 1});
    }
    return graph;
}

double
maxCycleRatio(const LoopDepGraph &graph)
{
    if (graph.nodes.empty() || graph.edges.empty())
        return 0.0;

    // Feasibility test for a candidate ratio λ: a cycle with
    // sum(latency - λ·distance) > 0 exists iff the graph with edge
    // weights λ·distance - latency has a negative cycle
    // (Bellman-Ford from an implicit super-source: dist ≡ 0).
    const std::size_t n = graph.nodes.size();
    const auto has_positive_cycle = [&](double lambda) {
        std::vector<double> dist(n, 0.0);
        bool relaxed = false;
        for (std::size_t round = 0; round <= n; ++round) {
            relaxed = false;
            for (const DepEdge &e : graph.edges) {
                const double w =
                    lambda * e.distance - double(e.latency);
                if (dist[std::size_t(e.from)] + w <
                    dist[std::size_t(e.to)] - 1e-12) {
                    dist[std::size_t(e.to)] =
                        dist[std::size_t(e.from)] + w;
                    relaxed = true;
                }
            }
            if (!relaxed)
                return false;
        }
        return true;
    };

    double hi = 0.0;
    for (const DepEdge &e : graph.edges)
        hi += double(e.latency);
    if (!has_positive_cycle(0.0))
        return 0.0; // acyclic dependence graph: no recurrence
    double lo = 0.0;
    for (int iter = 0; iter < 64 && hi - lo > 1e-4; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (has_positive_cycle(mid))
            lo = mid;
        else
            hi = mid;
    }
    // Return the infeasible-side-exclusive lower end: the true ratio
    // is >= lo, so II estimates derived from it never overstate the
    // recurrence (and IPC bounds never understate it).
    return lo;
}

double
dataflowCriticalPath(const ProgramCfg &cfg)
{
    if (!cfg.valid())
        return 0.0;
    // Per-register value-ready times at each processed block's exit;
    // a block's entry state is the elementwise max over its forward
    // predecessors (retreating edges cut — "loops unrolled once").
    std::vector<std::vector<double>> exit_ready(cfg.nodes().size());
    double critical = 0.0;

    for (const int b : cfg.rpo()) {
        std::vector<double> ready(2 * kNumVirtualRegs, 0.0);
        for (const int p : cfg.node(b).preds) {
            if (cfg.node(p).rpoIndex < 0 ||
                cfg.node(p).rpoIndex >= cfg.node(b).rpoIndex ||
                exit_ready[std::size_t(p)].empty()) {
                continue;
            }
            const auto &pr = exit_ready[std::size_t(p)];
            for (std::size_t r = 0; r < ready.size(); ++r)
                ready[r] = std::max(ready[r], pr[r]);
        }
        for (const Instruction &inst : cfg.program().block(b).insts) {
            double issue = 0.0;
            const RegId srcs[2] = {inst.src1, inst.src2};
            for (const RegId src : srcs) {
                const int r = flatReg(src);
                if (r >= 0)
                    issue = std::max(issue, ready[std::size_t(r)]);
            }
            const double done = issue + double(boundLatency(inst.op));
            critical = std::max(critical, done);
            const int d = flatReg(inst.dest);
            if (d >= 0)
                ready[std::size_t(d)] = done;
        }
        exit_ready[std::size_t(b)] = std::move(ready);
    }
    return critical;
}

} // namespace analysis
} // namespace drsim
