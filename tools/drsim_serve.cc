/**
 * @file
 * `drsim_serve` — the persistent simulation daemon (docs/SERVER.md).
 *
 * Accepts newline-delimited JSON requests over TCP, runs registered
 * experiments and declarative sweep specs on a shared worker pool,
 * streams complete per-point results back as they finish, and
 * remembers every simulated point in a content-addressed on-disk
 * cache so nothing is ever simulated twice — across requests, across
 * clients, and across daemon restarts.
 *
 *   drsim_serve --port 9196 --cache /var/tmp/drsim-cache
 *   drsim_bench --server 127.0.0.1:9196 fig7
 *
 * The worker pool is sized once, at startup, from DRSIM_JOBS (or the
 * hardware concurrency); requests that try to pick their own job
 * count are rejected — one daemon, one machine-wide pool, no
 * oversubscription.  SIGINT/SIGTERM drain in-flight work and exit
 * cleanly.
 *
 * Exit codes: 0 clean shutdown, 1 startup failure, 2 usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "exp/registry.hh"
#include "serve/server.hh"
#include "sim/runner.hh"

namespace {

using namespace drsim;

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: drsim_serve [options]\n"
        "\n"
        "Persistent simulation daemon: serves drsim_bench sweeps over\n"
        "TCP with a content-addressed result cache (docs/SERVER.md).\n"
        "\n"
        "options:\n"
        "  --host ADDR   bind address (default 127.0.0.1)\n"
        "  --port N      TCP port; 0 = pick one (default 9196)\n"
        "  --cache DIR   point-cache directory\n"
        "                (default $DRSIM_CACHE_DIR or drsim-cache)\n"
        "  --help        this text\n"
        "\n"
        "environment:\n"
        "  DRSIM_JOBS           worker-pool size, read once at startup\n"
        "  DRSIM_SCALE          default workload scale for requests\n"
        "  DRSIM_MAX_COMMITTED  default per-run commit cap\n"
        "  DRSIM_CACHE_DIR      default --cache value\n"
        "  DRSIM_CACHE_REV      override the cache code-version key\n");
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opts;
    opts.port = 9196;
    if (const char *dir = std::getenv("DRSIM_CACHE_DIR");
        dir != nullptr && dir[0] != '\0')
        opts.cacheDir = dir;

    const auto value_of = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "drsim_serve: %s needs a value\n",
                         flag);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else if (std::strcmp(arg, "--host") == 0) {
            opts.host = value_of(i, "--host");
        } else if (std::strcmp(arg, "--port") == 0) {
            const std::optional<std::uint64_t> port =
                parseDecimal(value_of(i, "--port"), 0, 65535);
            if (!port.has_value()) {
                std::fprintf(stderr,
                             "drsim_serve: --port must be 0..65535\n");
                return 2;
            }
            opts.port = int(*port);
        } else if (std::strcmp(arg, "--cache") == 0) {
            opts.cacheDir = value_of(i, "--cache");
        } else {
            std::fprintf(stderr, "drsim_serve: unknown option '%s'\n",
                         arg);
            usage(stderr);
            return 2;
        }
    }

    const exp::RunContext env = exp::RunContext::fromEnv();
    opts.scale = env.scale;
    opts.maxCommitted = env.maxCommitted;
    opts.jobs = resolveJobs(0);

    try {
        serve::Server server(std::move(opts));
        g_server = &server;

        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = onSignal;
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);

        server.start();
        server.serve();
        g_server = nullptr;
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "drsim_serve: %s\n", e.what());
        return 1;
    }
}
