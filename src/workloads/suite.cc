/**
 * @file
 * Registry of the nine SPEC92-like workloads (paper Table 1 order).
 */

#include "workloads/kernels.hh"

#include <algorithm>

#include "common/logging.hh"

namespace drsim {

namespace {

/**
 * tomcatv's natural unit of work (one mesh row) is ~3x the other
 * kernels' scale unit, mirroring the paper where tomcatv is by far
 * the longest benchmark; divide its scale to keep suite members
 * within the same order of magnitude.
 */
Program
makeTomcatvScaled(int scale, std::uint64_t seed)
{
    return makeTomcatv(std::max(1, scale / 6), seed);
}

/** Build @p spec's program; fatal() on a scale below 1 (at scale 0
 *  most kernels' loops never terminate). */
Workload
build(const WorkloadSpec &spec, int scale, std::uint64_t seed)
{
    if (scale < 1)
        fatal("workload scale must be >= 1 (got ", scale, ")");
    return {&spec, spec.maker(scale, seed)};
}

} // namespace

const std::vector<WorkloadSpec> &
spec92Specs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"compress", "ref",   false, makeCompress},
        {"doduc",    "small", true,  makeDoduc},
        {"espresso", "ti",    false, makeEspresso},
        {"gcc1",     "cexp",  false, makeGcc1},
        {"mdljdp2",  "small", true,  makeMdljdp2},
        {"mdljsp2",  "small", true,  makeMdljsp2},
        {"ora",      "small", true,  makeOra},
        {"su2cor",   "small", true,  makeSu2cor},
        {"tomcatv",  "ref",   true,  makeTomcatvScaled},
    };
    return specs;
}

std::vector<Workload>
buildSpec92Suite(int scale, std::uint64_t seed)
{
    std::vector<Workload> suite;
    suite.reserve(spec92Specs().size());
    for (const auto &spec : spec92Specs())
        suite.push_back(build(spec, scale, seed));
    return suite;
}

Workload
buildWorkload(const std::string &name, int scale, std::uint64_t seed)
{
    for (const auto &spec : spec92Specs())
        if (spec.name == name)
            return build(spec, scale, seed);
    fatal("unknown workload '", name, "'");
}

} // namespace drsim
