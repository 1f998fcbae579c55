/**
 * @file
 * Entry point of the google-benchmark micro suite, so `drsim bench`
 * can attach it to the experiment registry (via setExternalRunner)
 * without the registry library itself linking google-benchmark.
 */

#ifndef DRSIM_BENCH_MICRO_BENCHMARKS_HH
#define DRSIM_BENCH_MICRO_BENCHMARKS_HH

#include "exp/registry.hh"

namespace drsim {
namespace bench {

/** Run every registered microbenchmark (the body of
 *  BENCHMARK_MAIN()); the registry's runner for `micro`. */
int runMicroBenchmarks(const exp::RunContext &ctx);

} // namespace bench
} // namespace drsim

#endif // DRSIM_BENCH_MICRO_BENCHMARKS_HH
