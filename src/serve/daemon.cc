/**
 * @file
 * `drsim serve` — the persistent simulation daemon (docs/SERVER.md).
 *
 * Accepts newline-delimited JSON requests over TCP, runs registered
 * experiments and declarative sweep specs on a shared worker pool,
 * streams complete per-point results back as they finish, and
 * remembers every simulated point in a content-addressed on-disk
 * cache so nothing is ever simulated twice — across requests, across
 * clients, and across daemon restarts.
 *
 *   drsim serve --port 9196 --cache /var/tmp/drsim-cache
 *   drsim bench --server 127.0.0.1:9196 fig7
 *
 * The worker pool is sized once, at startup, from DRSIM_JOBS (or the
 * hardware concurrency); requests that try to pick their own job
 * count are rejected — one daemon, one machine-wide pool, no
 * oversubscription.  DRSIM_SCALE and DRSIM_MAX_COMMITTED set the
 * request defaults, DRSIM_CACHE_DIR the default --cache, and
 * DRSIM_CACHE_REV overrides the cache code-version key.
 * SIGINT/SIGTERM drain in-flight work and exit cleanly.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "exp/registry.hh"
#include "serve/server.hh"
#include "sim/options.hh"
#include "sim/runner.hh"

namespace drsim {

namespace {

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

} // namespace

int
serve::daemonMain(int argc, const char *const *argv)
{
    ServerOptions opts;
    opts.port = 9196;
    if (const char *dir = std::getenv("DRSIM_CACHE_DIR");
        dir != nullptr && dir[0] != '\0')
        opts.cacheDir = dir;
    std::int64_t port = opts.port;

    OptionParser p;
    p.addString("host", &opts.host, "bind address");
    p.addInt("port", &port, "TCP port; 0 = pick one", 0, 65535);
    p.addString("cache", &opts.cacheDir,
                "point-cache directory ($DRSIM_CACHE_DIR or "
                "drsim-cache)");
    if (const auto rc = p.parseCommandLine(argc, argv, "drsim serve"))
        return *rc;
    opts.port = int(port);

    try {
        const exp::RunContext env = exp::RunContext::fromEnv();
        opts.scale = env.scale;
        opts.maxCommitted = env.maxCommitted;
        opts.jobs = resolveJobs(0);

        Server server(std::move(opts));
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
        // Caught here as well as in the dispatcher: the standalone
        // drsim_serve binary runs this function without it.
        std::fprintf(stderr, "drsim serve: %s\n", e.what());
        return 1;
    }
}

} // namespace drsim
