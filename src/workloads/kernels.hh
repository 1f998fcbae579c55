/**
 * @file
 * The SPEC92-like synthetic kernel suite.
 *
 * Each maker builds a small, real program in the drsim ISA whose
 * dynamic behaviour is engineered to land in the same regime as the
 * corresponding SPEC92 benchmark's Table-1 signature (instruction mix,
 * data-cache load miss rate against the 64 KB 2-way baseline cache,
 * and conditional-branch misprediction rate against the 12 Kbit
 * McFarling predictor).  The per-kernel target numbers are documented
 * in each kernel's source file, and the measured values are recorded
 * in EXPERIMENTS.md.
 *
 * @p scale multiplies the outer iteration count; one unit of scale is
 * roughly 10k committed instructions, so the default suite scale of 30
 * yields ~300k committed instructions per benchmark.
 */

#ifndef DRSIM_WORKLOADS_KERNELS_HH
#define DRSIM_WORKLOADS_KERNELS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/program.hh"

namespace drsim {

/**
 * Each maker takes an optional data seed (0 = the kernel's default).
 * The seed varies the random *data* the kernel processes — table
 * contents, coordinates, branch-driving words — without changing the
 * program structure, enabling run-to-run variance studies
 * (bench/ext_variance).
 */
Program makeCompress(int scale, std::uint64_t seed = 0);
Program makeDoduc(int scale, std::uint64_t seed = 0);
Program makeEspresso(int scale, std::uint64_t seed = 0);
Program makeGcc1(int scale, std::uint64_t seed = 0);
Program makeMdljdp2(int scale, std::uint64_t seed = 0);
Program makeMdljsp2(int scale, std::uint64_t seed = 0);
Program makeOra(int scale, std::uint64_t seed = 0);
Program makeSu2cor(int scale, std::uint64_t seed = 0);
Program makeTomcatv(int scale, std::uint64_t seed = 0);

/** Static description of one suite member. */
struct WorkloadSpec
{
    std::string name;
    std::string dataset; ///< the SPEC92 data set the kernel mimics
    /** Included in the floating-point-register averages (the paper's
     *  FP curves use only the FP-intensive benchmarks). */
    bool fpIntensive;
    Program (*maker)(int scale, std::uint64_t seed);
};

/** The nine benchmarks of the paper's Table 1, in table order. */
const std::vector<WorkloadSpec> &spec92Specs();

/** A built, runnable suite member. */
struct Workload
{
    const WorkloadSpec *spec;
    Program program;
};

/** Build every suite program at the given scale (seed 0 = default
 *  data; other values perturb each kernel's random data).  fatal()
 *  on a scale below 1. */
std::vector<Workload> buildSpec92Suite(int scale,
                                       std::uint64_t seed = 0);

/** Build a single suite member by name (fatal on unknown name or a
 *  scale below 1). */
Workload buildWorkload(const std::string &name, int scale,
                       std::uint64_t seed = 0);

/** Default scale used by the paper-reproduction harnesses. */
constexpr int kDefaultSuiteScale = 30;

} // namespace drsim

#endif // DRSIM_WORKLOADS_KERNELS_HH
