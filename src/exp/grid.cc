#include "exp/grid.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace drsim {
namespace exp {

namespace {

/** "w4", "r80", ...: built by appending, because GCC 12 at -O3 flags
 *  `"w" + std::to_string(n)` with a false -Wrestrict positive. */
template <typename T>
std::string
numberedLabel(const char *prefix, T n)
{
    std::string label = prefix;
    label += std::to_string(n);
    return label;
}

} // namespace

Axis
widthAxis(const std::vector<int> &widths)
{
    Axis axis{"width", kRankWidth, {}};
    for (const int w : widths) {
        axis.values.push_back({numberedLabel("w", w),
                               [w](CoreConfig &cfg) {
                                   cfg.issueWidth = w;
                                   cfg.dqSize = w == 4 ? 32 : 64;
                               }});
    }
    return axis;
}

Axis
dqAxis(const std::vector<int> &sizes)
{
    Axis axis{"dq", kRankOther, {}};
    for (const int dq : sizes) {
        axis.values.push_back({numberedLabel("dq", dq),
                               [dq](CoreConfig &cfg) {
                                   cfg.dqSize = dq;
                               }});
    }
    return axis;
}

Axis
regsAxis(const std::vector<int> &regs)
{
    Axis axis{"regs", kRankRegs, {}};
    for (const int r : regs) {
        axis.values.push_back({numberedLabel("r", r),
                               [r](CoreConfig &cfg) {
                                   cfg.numPhysRegs = r;
                               }});
    }
    return axis;
}

Axis
modelAxis(const std::vector<ExceptionModel> &models)
{
    Axis axis{"model", kRankModel, {}};
    for (const ExceptionModel m : models) {
        axis.values.push_back({exceptionModelName(m),
                               [m](CoreConfig &cfg) {
                                   cfg.exceptionModel = m;
                               }});
    }
    return axis;
}

Axis
cacheAxis(const std::vector<CacheKind> &kinds)
{
    Axis axis{"cache", kRankCache, {}};
    for (const CacheKind k : kinds) {
        axis.values.push_back({cacheKindName(k),
                               [k](CoreConfig &cfg) {
                                   cfg.cacheKind = k;
                               }});
    }
    return axis;
}

Axis
mshrAxis(const std::vector<std::uint32_t> &bounds)
{
    Axis axis{"mshrs", kRankOther, {}};
    for (const std::uint32_t b : bounds) {
        axis.values.push_back(
            {b == 0 ? "mshr-unlimited" : numberedLabel("mshr", b),
             [b](CoreConfig &cfg) {
                 cfg.dcache.maxOutstandingMisses = b;
             }});
    }
    return axis;
}

Axis
writeBufferAxis(const std::vector<std::uint32_t> &entries)
{
    Axis axis{"write_buffer", kRankOther, {}};
    for (const std::uint32_t e : entries) {
        axis.values.push_back(
            {e == 0 ? "wb-unlimited" : numberedLabel("wb", e),
             [e](CoreConfig &cfg) {
                 cfg.dcache.writeBufferEntries = e;
             }});
    }
    return axis;
}

Axis
writeBufferDrainAxis(const std::vector<Cycle> &cycles)
{
    Axis axis{"write_buffer_drain", kRankOther, {}};
    for (const Cycle c : cycles) {
        axis.values.push_back({numberedLabel("drain", c),
                               [c](CoreConfig &cfg) {
                                   cfg.dcache.writeBufferDrainCycles =
                                       c;
                               }});
    }
    return axis;
}

Axis
predictorAxis(const std::vector<std::string> &specs)
{
    Axis axis{"predictor", kRankOther, {}};
    for (const std::string &p : specs) {
        axis.values.push_back({p, [p](CoreConfig &cfg) {
                                   cfg.predictor = p;
                               }});
    }
    return axis;
}

Axis
resultBusAxis(const std::vector<int> &buses)
{
    Axis axis{"result_buses", kRankOther, {}};
    for (const int b : buses) {
        axis.values.push_back(
            {b == 0 ? "bus-unlimited" : numberedLabel("bus", b),
             [b](CoreConfig &cfg) {
                 cfg.resultBuses = b;
             }});
    }
    return axis;
}

Axis
variantAxis(const std::string &label, std::vector<AxisValue> values)
{
    return Axis{label, kRankOther, std::move(values)};
}

std::size_t
gridPoints(const GridDef &grid)
{
    std::size_t n = 1;
    for (const Axis &axis : grid.axes)
        n *= axis.values.size();
    return n;
}

namespace {

/** Fragment join order: prefix, then axes sorted by rank (stable, so
 *  equal ranks keep declaration order). */
std::vector<std::size_t>
nameOrder(const GridDef &grid)
{
    std::vector<std::size_t> order(grid.axes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return grid.axes[a].nameRank <
                                grid.axes[b].nameRank;
                     });
    return order;
}

} // namespace

std::vector<ExperimentSpec>
expandGrid(const GridDef &grid)
{
    for (const Axis &axis : grid.axes) {
        if (axis.values.empty())
            fatal("grid axis '", axis.label, "' has no values");
    }
    const std::vector<std::size_t> order = nameOrder(grid);
    const std::size_t total = gridPoints(grid);

    std::vector<ExperimentSpec> specs;
    specs.reserve(total);
    std::vector<std::size_t> idx(grid.axes.size(), 0);
    for (std::size_t flat = 0; flat < total; ++flat) {
        // Row-major decode: the first axis is the outermost loop.
        std::size_t rem = flat;
        for (std::size_t a = grid.axes.size(); a-- > 0;) {
            idx[a] = rem % grid.axes[a].values.size();
            rem /= grid.axes[a].values.size();
        }

        ExperimentSpec spec;
        spec.config = grid.base;
        for (std::size_t a = 0; a < grid.axes.size(); ++a)
            grid.axes[a].values[idx[a]].apply(spec.config);

        spec.name = grid.namePrefix;
        for (const std::size_t a : order) {
            const std::string &frag =
                grid.axes[a].values[idx[a]].fragment;
            if (frag.empty())
                continue;
            if (!spec.name.empty())
                spec.name += '-';
            spec.name += frag;
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<ExperimentSpec>
expandGrids(const std::vector<GridDef> &grids)
{
    std::vector<ExperimentSpec> specs;
    for (const GridDef &grid : grids) {
        auto part = expandGrid(grid);
        specs.insert(specs.end(),
                     std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
    return specs;
}

} // namespace exp
} // namespace drsim
