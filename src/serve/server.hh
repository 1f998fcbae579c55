/**
 * @file
 * The `drsim serve` TCP front end: a newline-delimited JSON protocol
 * over a plain socket (docs/SERVER.md is the normative wire spec).
 *
 * One thread accepts connections; each connection gets its own thread
 * that reads requests line by line and streams replies.  All actual
 * simulation work happens on the SweepService's worker pool, so a
 * connection thread is only ever parsing, formatting, and blocking on
 * socket I/O — many concurrent clients share one pool and one cache,
 * which is precisely what makes identical concurrent sweeps coalesce.
 *
 * Shutdown is cooperative: requestStop() (async-signal-safe, the
 * SIGINT/SIGTERM handlers call it) pokes a self-pipe; the accept loop
 * wakes, stops accepting, half-closes every client socket for reading
 * (shutdown(SHUT_RD)), and joins the connection threads.  A
 * connection that is mid-run finishes streaming its replies before
 * its read loop sees EOF — in-flight work drains, nothing is killed.
 */

#ifndef DRSIM_SERVE_SERVER_HH
#define DRSIM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/content_store.hh"
#include "common/json.hh"
#include "exp/registry.hh"
#include "serve/service.hh"
#include "workloads/kernels.hh"

namespace drsim {
namespace serve {

struct ServerOptions
{
    /** Bind address; loopback by default (the protocol is
     *  unauthenticated — see docs/SERVER.md before widening). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (reported by start()). */
    int port = 0;
    /** Point-cache directory. */
    std::string cacheDir = "drsim-cache";
    /** Worker-pool size; must already be resolved (resolveJobs). */
    int jobs = 1;
    /** Default workload scale for run requests that omit "scale". */
    int scale = kDefaultSuiteScale;
    /** Default committed-instruction cap ("max_committed"). */
    std::uint64_t maxCommitted = 0;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind and listen; logs the endpoint and the effective pool
     *  size; returns the bound port.  fatal() on bind failure. */
    int start();

    /** Accept loop; blocks until requestStop(), then drains. */
    void serve();

    /** Stop serving.  Async-signal-safe (one write() to a pipe);
     *  callable from any thread or signal handler, idempotent. */
    void requestStop();

    /** Testing hook: deliver @p signo to every live connection
     *  thread (pthread_kill), exercising the EINTR paths of the
     *  connection read loop deterministically. */
    void interruptConnectionsForTest(int signo);

    int port() const { return port_; }
    SweepService &service() { return service_; }

  private:
    struct Connection
    {
        std::thread thread;
        int fd;
        std::shared_ptr<std::atomic<bool>> done;
    };

    void connectionLoop(int fd, std::uint64_t connId,
                        std::atomic<bool> &done);
    void handleLine(int fd, std::uint64_t connId,
                    const std::string &line);
    void handleRun(int fd, std::uint64_t connId,
                   const json::Value &req,
                   const std::optional<std::string> &id);
    void handleStats(int fd);
    /** @p def's suite at ctx.scale, from the memo (keyed on
     *  def.suiteName) or built now.  Concurrent first requests for one
     *  suite build it once. */
    std::shared_ptr<const std::vector<Workload>>
    suiteFor(const exp::ExperimentDef &def, const exp::RunContext &ctx);
    /** Best-effort write of @p reply + '\n'; false when the peer is
     *  gone (callers keep draining but stop writing). */
    bool sendLine(int fd, const std::string &reply);
    bool sendError(int fd, const std::optional<std::string> &id,
                   const char *code, const std::string &message);
    void reapFinished();

    ServerOptions opts_;
    SweepService service_;
    /** Built suites: programs are immutable, and rebuilding them
     *  cost more than most requests' simulations. */
    using SuiteMemo = MemoryTier<std::vector<Workload>>;
    SuiteMemo suites_;
    int listenFd_ = -1;
    int port_ = 0;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};
    std::chrono::steady_clock::time_point started_{};

    std::mutex connMutex_;
    std::vector<Connection> connections_;
    std::uint64_t nextConnId_ = 0;
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> requestErrors_{0};
    std::atomic<std::uint64_t> connectionsTotal_{0};
};

/**
 * The body of `drsim serve`: parse the daemon's options from @p argv
 * (the arguments after the verb), then bind, serve until
 * SIGINT/SIGTERM, and drain.  Returns the exit code: 0 clean
 * shutdown, 1 startup failure, 2 usage error.
 */
int daemonMain(int argc, const char *const *argv);

} // namespace serve
} // namespace drsim

#endif // DRSIM_SERVE_SERVER_HH
