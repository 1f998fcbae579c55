/**
 * @file
 * `drsim` — the one entry point.  The first argument names a verb;
 * the rest are that verb's options (`drsim <verb> --help`):
 *
 *   drsim run --workload compress --regs 80   # one simulation
 *   drsim bench table1 fig7                   # paper experiments
 *   drsim lint --bounds                       # static verifier
 *   drsim serve --port 9196                   # sweep daemon
 *   drsim report results.json                 # stall breakdown
 *
 * Exit codes, for every verb: 0 success, 1 runtime failure, 2 usage
 * error (a missing or unknown verb included).
 */

#include <cstdio>
#include <string_view>

#include "common/logging.hh"
#include "serve/server.hh"
#include "tools/verbs.hh"

namespace {

struct Verb
{
    const char *name;
    int (*main)(int argc, const char *const *argv);
    const char *summary;
};

constexpr Verb kVerbs[] = {
    {"run", drsim::tools::runVerb,
     "simulate one workload under one configuration"},
    {"bench", drsim::tools::benchVerb,
     "run paper experiments and sweep specs by name"},
    {"lint", drsim::tools::lintVerb,
     "statically verify guest programs"},
    {"serve", drsim::serve::daemonMain,
     "run the persistent sweep daemon (docs/SERVER.md)"},
    {"report", drsim::tools::reportVerb,
     "render and check a results file's stall breakdown"},
};

void
usage(std::FILE *to)
{
    std::fprintf(to, "usage: drsim <verb> [options]\n\nverbs:\n");
    for (const Verb &v : kVerbs)
        std::fprintf(to, "  %-8s %s\n", v.name, v.summary);
    std::fprintf(to, "\n`drsim <verb> --help` lists a verb's options.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    const std::string_view name = argv[1];
    if (name == "--help" || name == "-h") {
        usage(stdout);
        return 0;
    }
    for (const Verb &v : kVerbs) {
        if (name != v.name)
            continue;
        try {
            return v.main(argc - 2, argv + 2);
        } catch (const drsim::FatalError &e) {
            std::fprintf(stderr, "drsim %s: %s\n", v.name, e.what());
            return 1;
        }
    }
    std::fprintf(stderr, "drsim: unknown verb '%s'\n", argv[1]);
    usage(stderr);
    return 2;
}
