#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "bpred/predictor.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/config_check.hh"
#include "exp/registry.hh"
#include "exp/spec_file.hh"
#include "serve/result_io.hh"
#include "sim/ckpt_store.hh"
#include "sim/runner.hh"
#include "workloads/digest.hh"

namespace drsim {
namespace serve {

namespace {

/** Requests larger than this are hostile or broken, not sweeps. */
constexpr std::size_t kMaxLineBytes = std::size_t(4) << 20;

/** Built suites kept in memory, least recently used evicted first.
 *  A SPEC92-like suite holds ~9 MB; request scale is client-chosen,
 *  so the memo must not grow with the requests it has seen. */
constexpr std::size_t kSuiteMemoEntries = 4;

/** Data seed of every served suite: requests do not choose one. */
constexpr std::uint64_t kServedSeed = 0;

void
logLine(std::uint64_t connId, const std::string &msg)
{
    std::fprintf(stderr, "[drsim_serve] conn %llu: %s\n",
                 static_cast<unsigned long long>(connId), msg.c_str());
}

/** A reply object opened with its "reply" kind and, when the request
 *  carried a string "id", that id verbatim (the empty string too). */
json::Writer
openReply(const char *kind, const std::optional<std::string> &id)
{
    json::Writer w;
    w.beginObject();
    w.key("reply").value(kind);
    if (id.has_value())
        w.key("id").value(*id);
    return w;
}

/** Wall-clock seconds at the wire's millisecond resolution. */
double
wireSeconds(std::chrono::steady_clock::time_point since)
{
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - since;
    return std::round(ms.count()) / 1000.0;
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), service_(opts_.cacheDir, opts_.jobs),
      suites_(kSuiteMemoEntries)
{
}

Server::~Server()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int i = 0; i < 2; ++i) {
        if (stopPipe_[i] >= 0)
            ::close(stopPipe_[i]);
    }
    std::lock_guard<std::mutex> lock(connMutex_);
    for (Connection &conn : connections_) {
        if (conn.thread.joinable())
            conn.thread.join();
    }
}

int
Server::start()
{
    if (::pipe(stopPipe_) != 0)
        fatal("pipe: ", std::strerror(errno));

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("socket: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1)
        fatal("not an IPv4 address: '", opts_.host, "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        fatal("cannot bind ", opts_.host, ":", opts_.port, ": ",
              std::strerror(errno));
    }
    if (::listen(listenFd_, 64) != 0)
        fatal("listen: ", std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal("getsockname: ", std::strerror(errno));
    port_ = int(ntohs(addr.sin_port));
    started_ = std::chrono::steady_clock::now();

    std::fprintf(stderr, "[drsim_serve] listening on %s:%d\n",
                 opts_.host.c_str(), port_);
    std::fprintf(stderr,
                 "[drsim_serve] worker pool: %d jobs (DRSIM_JOBS is "
                 "read once at startup; per-request \"jobs\" is "
                 "rejected)\n",
                 service_.jobs());
    std::fprintf(stderr, "[drsim_serve] cache: %s (rev %s)\n",
                 service_.cache().dir().c_str(),
                 service_.cache().rev().c_str());
    return port_;
}

void
Server::serve()
{
    while (!stopping_.load()) {
        pollfd fds[2] = {
            {listenFd_, POLLIN, 0},
            {stopPipe_[0], POLLIN, 0},
        };
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("poll: ", std::strerror(errno));
        }
        if (fds[1].revents != 0 || stopping_.load())
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            warn("accept: ", std::strerror(errno));
            continue;
        }
        // ack/point/done writes, then a read: Nagle waits on delayed ACKs.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::lock_guard<std::mutex> lock(connMutex_);
        const std::uint64_t connId = nextConnId_++;
        ++connectionsTotal_;
        Connection conn;
        conn.fd = fd;
        conn.done = std::make_shared<std::atomic<bool>>(false);
        conn.thread = std::thread([this, fd, connId, done = conn.done] {
            connectionLoop(fd, connId, *done);
        });
        connections_.push_back(std::move(conn));
        reapFinished();
    }

    // Drain: stop accepting, half-close every client for reading so
    // its read loop ends after the request it is serving, then join.
    ::close(listenFd_);
    listenFd_ = -1;
    std::vector<Connection> conns;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns.swap(connections_);
    }
    for (Connection &conn : conns)
        ::shutdown(conn.fd, SHUT_RD);
    for (Connection &conn : conns)
        conn.thread.join();
    std::fprintf(stderr,
                 "[drsim_serve] shut down after %llu connections, "
                 "%llu requests\n",
                 static_cast<unsigned long long>(
                     connectionsTotal_.load()),
                 static_cast<unsigned long long>(requests_.load()));
}

void
Server::requestStop()
{
    stopping_.store(true);
    const char byte = 'x';
    // Async-signal-safe; the return value only tells us the pipe is
    // already full of stop requests, which is itself a stop request.
    (void)!::write(stopPipe_[1], &byte, 1);
}

void
Server::reapFinished()
{
    // Caller holds connMutex_.
    for (std::size_t i = 0; i < connections_.size();) {
        if (connections_[i].done->load()) {
            connections_[i].thread.join();
            connections_[i] = std::move(connections_.back());
            connections_.pop_back();
        } else {
            ++i;
        }
    }
}

void
Server::connectionLoop(int fd, std::uint64_t connId,
                       std::atomic<bool> &done)
{
    logLine(connId, "connected");
    std::string buffer;
    // The bytes of buffer already searched for '\n': a long line that
    // arrives in many pieces is scanned once, not once per piece.
    std::size_t scanned = 0;
    char chunk[65536];
    bool open = true;
    bool orderly = true;
    while (open) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            // A signal landing on this thread (the server installs
            // SIGINT/SIGTERM handlers for its drain) interrupts recv
            // without ending the connection — retry, don't drop a
            // client mid-request.
            if (errno == EINTR)
                continue;
            logLine(connId, std::string("recv error: ") +
                                std::strerror(errno));
            orderly = false;
            break;
        }
        if (n == 0)
            break; // orderly shutdown from the peer
        buffer.append(chunk, std::size_t(n));
        std::size_t start = 0;
        for (std::size_t nl;
             (nl = buffer.find('\n', scanned)) != std::string::npos;) {
            std::string line = buffer.substr(start, nl - start);
            start = scanned = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                handleLine(fd, connId, line);
        }
        buffer.erase(0, start);
        scanned = buffer.size();
        if (buffer.size() > kMaxLineBytes) {
            sendError(fd, std::nullopt, "line-too-long",
                      "request line exceeds 4 MiB");
            open = false;
        }
    }
    ::close(fd);
    logLine(connId, orderly ? "disconnected" : "closed after error");
    done.store(true);
}

void
Server::interruptConnectionsForTest(int signo)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    for (Connection &conn : connections_) {
        if (!conn.done->load())
            ::pthread_kill(conn.thread.native_handle(), signo);
    }
}

bool
Server::sendLine(int fd, const std::string &reply)
{
    std::string data = reply;
    data += '\n';
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += std::size_t(n);
    }
    return true;
}

bool
Server::sendError(int fd, const std::optional<std::string> &id,
                  const char *code, const std::string &message)
{
    ++requestErrors_;
    json::Writer w = openReply("error", id);
    w.key("code").value(code);
    w.key("message").value(message);
    return sendLine(fd, w.endObject().str());
}

void
Server::handleLine(int fd, std::uint64_t connId,
                   const std::string &line)
{
    ++requests_;
    json::Value req;
    try {
        req = json::parse(line);
    } catch (const FatalError &e) {
        logLine(connId, std::string("bad json: ") + e.what());
        sendError(fd, std::nullopt, "bad-json", e.what());
        return;
    }
    if (!req.isObject()) {
        sendError(fd, std::nullopt, "bad-request",
                  "request must be a JSON object");
        return;
    }
    std::optional<std::string> id;
    if (const json::Value *v = req.find("id");
        v != nullptr && v->isString())
        id = v->asString();

    const json::Value *verb = req.find("verb");
    if (verb == nullptr || !verb->isString()) {
        sendError(fd, id, "bad-request",
                  "request has no \"verb\" string");
        return;
    }

    try {
        if (verb->asString() == "ping") {
            json::Writer w = openReply("pong", id);
            w.key("server").value("drsim_serve");
            sendLine(fd, w.endObject().str());
        } else if (verb->asString() == "stats") {
            handleStats(fd);
        } else if (verb->asString() == "run") {
            handleRun(fd, connId, req, id);
        } else {
            sendError(fd, id, "unknown-verb",
                      "unknown verb '" + verb->asString() + "'");
        }
    } catch (const FatalError &e) {
        // Nothing the protocol layer throws for should cost the
        // client its connection; report and read the next request.
        logLine(connId, std::string("request failed: ") + e.what());
        sendError(fd, id, "bad-request", e.what());
    }
}

void
Server::handleStats(int fd)
{
    const SweepService::Stats s = service_.stats();
    const PointCache::Stats c = service_.cache().stats();
    const CkptStore::Stats k = ckptLibrary().stats();
    const SuiteMemo::Stats m = suites_.stats();
    json::Writer w = openReply("stats", std::nullopt);
    w.key("uptime_seconds").value(wireSeconds(started_));
    w.key("jobs").value(service_.jobs());
    w.key("rev").value(service_.cache().rev());
    w.key("cache_dir").value(service_.cache().dir());
    w.key("connections").value(connectionsTotal_.load());
    w.key("requests").value(requests_.load());
    w.key("request_errors").value(requestErrors_.load());
    w.key("points").value(s.points);
    w.key("memory_hits").value(s.memoryHits);
    w.key("disk_hits").value(s.diskHits);
    w.key("computed").value(s.computed);
    w.key("coalesced").value(s.coalesced);
    w.key("in_flight").value(s.inFlight);
    w.key("point_errors").value(s.errors);
    w.key("cache_hits").value(c.hits);
    w.key("cache_misses").value(c.misses);
    w.key("cache_corrupt").value(c.corrupt);
    w.key("cache_stores").value(c.stores);
    w.key("cache_evicted").value(c.evicted);
    w.key("ckpt_generated").value(k.generated);
    w.key("ckpt_coalesced").value(k.coalesced);
    w.key("ckpt_memory_hits").value(k.memoryHits);
    w.key("suite_builds").value(m.owned);
    w.key("suite_memo_hits").value(m.hits + m.coalesced);
    w.key("suite_memo_entries").value(m.resident);
    sendLine(fd, w.endObject().str());
}

std::shared_ptr<const std::vector<Workload>>
Server::suiteFor(const exp::ExperimentDef &def, const exp::RunContext &ctx)
{
    const std::string key = def.suiteName + " scale=" +
                            std::to_string(ctx.scale) + " seed=" +
                            std::to_string(kServedSeed);
    return suites_.get(key, [&] {
        return std::make_shared<const std::vector<Workload>>(
            exp::buildSuite(def, ctx));
    });
}

void
Server::handleRun(int fd, std::uint64_t connId,
                  const json::Value &req,
                  const std::optional<std::string> &id)
{
    // Strict key validation: a typoed knob silently ignored would
    // quietly serve the wrong sweep.  "jobs" gets its own error —
    // the pool is sized once at startup, by design (docs/SERVER.md).
    for (const auto &[key, value] : req.members()) {
        (void)value;
        if (key == "jobs") {
            sendError(fd, id, "jobs-not-allowed",
                      "the worker pool is sized once at daemon "
                      "startup (DRSIM_JOBS); per-request job counts "
                      "are not accepted");
            return;
        }
        if (key != "verb" && key != "id" && key != "experiment" &&
            key != "spec" && key != "scale" &&
            key != "max_committed" && key != "sampling" &&
            key != "predictor" && key != "result_buses") {
            sendError(fd, id, "bad-request",
                      "unknown request key '" + key + "'");
            return;
        }
    }

    exp::RunContext ctx;
    ctx.scale = opts_.scale;
    ctx.maxCommitted = opts_.maxCommitted;
    ctx.jobs = service_.jobs();
    if (const json::Value *v = req.find("scale")) {
        // Range-check before narrowing: a u64 above INT_MAX must not
        // wrap into some other (valid-looking) scale.
        const std::uint64_t scale = v->asU64();
        if (scale < 1 ||
            scale > std::uint64_t(std::numeric_limits<int>::max())) {
            sendError(fd, id, "bad-request",
                      "scale must be in 1.." +
                          std::to_string(
                              std::numeric_limits<int>::max()));
            return;
        }
        ctx.scale = int(scale);
    }
    if (const json::Value *v = req.find("max_committed"))
        ctx.maxCommitted = v->asU64();
    if (const json::Value *v = req.find("sampling")) {
        if (!v->isObject()) {
            sendError(fd, id, "bad-request",
                      "\"sampling\" must be an object with interval/"
                      "window/warmup");
            return;
        }
        for (const auto &[key, value] : v->members()) {
            (void)value;
            if (key != "interval" && key != "window" &&
                key != "warmup" && key != "warmff") {
                sendError(fd, id, "bad-request",
                          "unknown sampling key '" + key + "'");
                return;
            }
        }
        // Point records echo "warmff": 0, whole-gap warming, the only
        // policy; a request may repeat that but ask for nothing else.
        if (const json::Value *w = v->find("warmff");
            w != nullptr && w->asU64() != 0) {
            sendError(fd, id, "bad-request",
                      "\"warmff\" must be 0: every window warms its "
                      "whole gap");
            return;
        }
        SamplingConfig sc;
        sc.interval = v->at("interval").asU64();
        sc.window = v->at("window").asU64();
        sc.warmup = v->at("warmup").asU64();
        if (!sc.enabled()) {
            sendError(fd, id, "bad-request",
                      "\"sampling\" interval must be > 0 (omit "
                      "\"sampling\" for a full-detail run)");
            return;
        }
        // A FatalError is a bad-request reply (handleLine).
        requireFeasibleSampling(sc, "\"sampling\" member");
        ctx.sampling = sc;
    }
    if (const json::Value *v = req.find("predictor")) {
        if (!v->isString() || !knownPredictor(v->asString())) {
            sendError(fd, id, "bad-request",
                      "\"predictor\" must be one of " +
                          predictorSpecList());
            return;
        }
        ctx.predictor = v->asString();
    }
    if (const json::Value *v = req.find("result_buses")) {
        // Range-checked before narrowing, as scale is.
        const std::uint64_t buses = v->asU64();
        if (buses > std::uint64_t(std::numeric_limits<int>::max())) {
            sendError(fd, id, "bad-request",
                      "result_buses must be in 0.." +
                          std::to_string(
                              std::numeric_limits<int>::max()) +
                          " (0 = unlimited)");
            return;
        }
        ctx.resultBuses = int(buses);
    }
    const json::Value *expName = req.find("experiment");
    const json::Value *specDoc = req.find("spec");
    if ((expName == nullptr) == (specDoc == nullptr)) {
        sendError(fd, id, "bad-request",
                  "run takes exactly one of \"experiment\" and "
                  "\"spec\"");
        return;
    }

    exp::ExperimentDef def;
    if (expName != nullptr) {
        const exp::ExperimentDef *found =
            exp::findExperiment(expName->asString());
        if (found == nullptr) {
            sendError(fd, id, "unknown-experiment",
                      "unknown experiment '" + expName->asString() +
                          "'");
            return;
        }
        if (found->run) {
            sendError(fd, id, "custom-experiment",
                      "experiment '" + expName->asString() +
                          "' is a custom harness; only grid "
                          "experiments can be served");
            return;
        }
        def = *found;
    } else {
        if (!specDoc->isObject()) {
            sendError(fd, id, "bad-spec",
                      "\"spec\" must be a sweep-spec object");
            return;
        }
        try {
            def = exp::specExperiment(
                exp::parseSweepSpec(json::serialize(*specDoc)));
        } catch (const FatalError &e) {
            sendError(fd, id, "bad-spec", e.what());
            return;
        }
    }
    std::vector<ExperimentSpec> specs;
    try {
        // expandExperiment screens every point through
        // requireFeasibleConfig; a request-level sampling or budget
        // override can make a stock grid infeasible.
        specs = exp::expandExperiment(def, ctx);
    } catch (const FatalError &e) {
        sendError(fd, id, "infeasible-config", e.what());
        return;
    }
    const std::shared_ptr<const std::vector<Workload>> suite =
        suiteFor(def, ctx);

    const std::size_t numSpecs = specs.size();
    const std::size_t numWl = suite->size();
    const std::size_t numPoints = numSpecs * numWl;
    logLine(connId, "run " + def.name + " scale=" +
                        std::to_string(ctx.scale) + " points=" +
                        std::to_string(numPoints));
    const auto runStart = std::chrono::steady_clock::now();

    std::vector<std::string> digests;
    digests.reserve(numWl);
    for (const Workload &w : *suite)
        digests.push_back(programDigest(w.program));

    json::Writer ack = openReply("ack", id);
    ack.key("run").value(def.name);
    ack.key("specs").value(numSpecs);
    ack.key("workloads").value(numWl);
    ack.key("points").value(numPoints);
    ack.key("scale").value(ctx.scale);
    ack.key("max_committed").value(ctx.maxCommitted);
    sendLine(fd, ack.endObject().str());

    // Stream each point as it completes.  The callbacks only queue;
    // this thread does all socket writes, so replies never interleave.
    struct Progress
    {
        std::mutex m;
        std::condition_variable cv;
        std::deque<std::tuple<std::size_t, std::size_t, PointOutcome>>
            ready;
    };
    auto progress = std::make_shared<Progress>();
    for (std::size_t si = 0; si < numSpecs; ++si) {
        for (std::size_t wi = 0; wi < numWl; ++wi) {
            PointKey key;
            key.config = specs[si].config;
            key.workload = (*suite)[wi].spec->name;
            key.digest = digests[wi];
            std::shared_ptr<const Workload> wl(suite,
                                               &(*suite)[wi]);
            service_.requestPoint(
                key, wl,
                [progress, si, wi](const PointOutcome &outcome) {
                    std::lock_guard<std::mutex> lock(progress->m);
                    progress->ready.emplace_back(si, wi, outcome);
                    progress->cv.notify_one();
                });
        }
    }

    std::uint64_t cacheHits = 0, computed = 0, coalesced = 0;
    std::string firstError;
    bool writable = true;
    for (std::size_t got = 0; got < numPoints; ++got) {
        std::tuple<std::size_t, std::size_t, PointOutcome> item;
        {
            std::unique_lock<std::mutex> lock(progress->m);
            progress->cv.wait(lock,
                              [&] { return !progress->ready.empty(); });
            item = std::move(progress->ready.front());
            progress->ready.pop_front();
        }
        const auto &[si, wi, outcome] = item;
        if (!outcome.ok()) {
            if (firstError.empty())
                firstError = outcome.error;
            continue;
        }
        if (outcome.cacheHit)
            ++cacheHits;
        else if (!outcome.coalesced)
            ++computed;
        if (outcome.coalesced)
            ++coalesced;
        if (!writable)
            continue;
        json::Writer w = openReply("point", id);
        w.key("spec").value(specs[si].name);
        w.key("workload").value((*suite)[wi].spec->name);
        w.key("cache_hit").value(outcome.cacheHit);
        w.key("coalesced").value(outcome.coalesced);
        w.key("computed_at_rev").value(outcome.rev);
        writePointRecord(w.key("result"), *outcome.result);
        writable = sendLine(fd, w.endObject().str());
    }

    const double seconds = wireSeconds(runStart);

    if (!firstError.empty()) {
        logLine(connId, "run " + def.name + " failed: " + firstError);
        sendError(fd, id, "sim-failed", firstError);
        return;
    }

    if (writable) {
        json::Writer w = openReply("done", id);
        w.key("run").value(def.name);
        w.key("points").value(numPoints);
        w.key("cache_hits").value(cacheHits);
        w.key("computed").value(computed);
        w.key("coalesced").value(coalesced);
        w.key("seconds").value(seconds);
        sendLine(fd, w.endObject().str());
    }
    char secondsBuf[32];
    std::snprintf(secondsBuf, sizeof(secondsBuf), "%.3f", seconds);
    logLine(connId, "run " + def.name + " done: " +
                        std::to_string(numPoints) + " points, " +
                        std::to_string(cacheHits) + " cache hits, " +
                        std::to_string(computed) + " computed, " +
                        std::to_string(coalesced) + " coalesced, " +
                        secondsBuf + "s");
}

} // namespace serve
} // namespace drsim
