/**
 * @file
 * `drbench` — one round of one drsim benchmark workload.
 *
 *   drbench sweep_full    --seed 1 [--trace] [--verify] --work DIR
 *   drbench sweep_sampled --seed 1 [--trace] [--verify] --work DIR
 *   drbench serve_stream  --seed 1 [--trace] [--verify] --work DIR
 *                         --serve PATH/TO/drsim_serve
 *
 * Prints one JSON line describing the round (perfbench/run.py reduces
 * rounds to the reported metrics).  Exit 0 on a completed round, even
 * when the oracle flags failed points (they are counted in the line);
 * 2 on bad usage; 1 when the round itself could not run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "bench.hh"

int
main(int argc, char **argv)
{
    using namespace drsim::bench;
    Args args;
    if (argc < 2) {
        std::fprintf(stderr, "usage: drbench WORKLOAD --seed N [--trace] "
                             "[--verify] --work DIR [--serve BIN]\n");
        return 2;
    }
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--work") == 0 && has_value) {
            args.work = argv[++i];
        } else if (std::strcmp(argv[i], "--serve") == 0 && has_value) {
            args.serveBin = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            args.trace = true;
        } else if (std::strcmp(argv[i], "--verify") == 0) {
            args.verify = true;
        } else {
            std::fprintf(stderr, "drbench: bad argument '%s'\n", argv[i]);
            return 2;
        }
    }
    try {
        if (args.mode == "sweep_full" || args.mode == "sweep_sampled")
            return runSweep(args);
        if (args.mode == "serve_stream")
            return runServeStream(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "drbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "drbench: unknown workload '%s'\n",
                 args.mode.c_str());
    return 2;
}
