#include "serve/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/env.hh"
#include "common/logging.hh"
#include "serve/result_io.hh"
#include "sim/runner.hh"

namespace drsim {
namespace serve {

namespace {

void
splitHostPort(const std::string &hostPort, std::string &host,
              int &port)
{
    const std::size_t colon = hostPort.rfind(':');
    if (colon == std::string::npos || colon + 1 == hostPort.size())
        fatal("--server expects HOST:PORT, got '", hostPort, "'");
    host = hostPort.substr(0, colon);
    const std::optional<std::uint64_t> parsed =
        parseDecimal(hostPort.c_str() + colon + 1, 1, 65535);
    if (!parsed.has_value())
        fatal("--server: bad port in '", hostPort, "'");
    port = int(*parsed);
}

} // namespace

ServeClient::ServeClient(const std::string &hostPort)
{
    std::string host;
    int port = 0;
    splitHostPort(hostPort, host, port);

    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        fatal("socket: ", std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        fatal("--server: not an IPv4 address: '", host, "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        fatal("cannot connect to a drsim serve daemon at ", hostPort, ": ",
              std::strerror(err));
    }
}

ServeClient::~ServeClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ServeClient::sendLine(const std::string &line)
{
    std::string data = line;
    data += '\n';
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("server connection lost while sending: ",
                  std::strerror(errno));
        }
        sent += std::size_t(n);
    }
}

std::optional<std::string>
ServeClient::readLine()
{
    for (;;) {
        const std::size_t nl = buffer_.find('\n', scanned_);
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(lineStart_, nl - lineStart_);
            lineStart_ = scanned_ = nl + 1;
            return line;
        }
        // Drop the lines already returned only when more bytes must
        // come, so a burst of replies costs one move, not one each.
        buffer_.erase(0, lineStart_);
        lineStart_ = 0;
        scanned_ = buffer_.size();
        char chunk[65536];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("server connection lost: ", std::strerror(errno));
        }
        if (n == 0)
            return std::nullopt;
        buffer_.append(chunk, std::size_t(n));
    }
}

json::Value
ServeClient::readReply()
{
    const std::optional<std::string> line = readLine();
    if (!line.has_value())
        fatal("server closed the connection mid-conversation");
    return json::parse(*line);
}

json::Value
ServeClient::readReply(std::optional<SimResult> &record)
{
    const std::optional<std::string> line = readLine();
    if (!line.has_value())
        fatal("server closed the connection mid-conversation");
    record.reset();
    return parseWithPointRecord(*line, record);
}

namespace {

/**
 * The shared serve-and-reassemble engine: send @p request, stream
 * point replies into a (spec × workload) grid, and hand back the
 * ExperimentResult vector in exactly the order a local
 * runExperiments() call would have produced.
 */
std::vector<ExperimentResult>
runViaServer(const std::string &hostPort, const std::string &request,
             const std::vector<ExperimentSpec> &specs,
             const std::vector<Workload> &suite)
{
    std::unordered_map<std::string, std::size_t> specIndex;
    for (std::size_t i = 0; i < specs.size(); ++i)
        specIndex.emplace(specs[i].name, i);
    std::unordered_map<std::string, std::size_t> wlIndex;
    for (std::size_t i = 0; i < suite.size(); ++i)
        wlIndex.emplace(suite[i].spec->name, i);

    ServeClient client(hostPort);
    client.sendLine(request);

    const std::size_t expected = specs.size() * suite.size();
    std::vector<std::vector<SimResult>> grid(specs.size());
    for (auto &row : grid)
        row.resize(suite.size());
    std::vector<std::vector<bool>> seen(
        specs.size(), std::vector<bool>(suite.size(), false));
    std::size_t received = 0;
    std::uint64_t cacheHits = 0, computed = 0, coalesced = 0;
    bool done = false;
    while (!done) {
        std::optional<SimResult> record;
        const json::Value reply = client.readReply(record);
        const std::string &kind = reply.at("reply").asString();
        if (kind == "error") {
            fatal("server error [", reply.at("code").asString(),
                  "]: ", reply.at("message").asString());
        } else if (kind == "ack") {
            if (reply.at("points").asU64() != expected) {
                fatal("server expanded ", reply.at("points").asU64(),
                      " points where this client expects ", expected,
                      " — client/server version skew?");
            }
        } else if (kind == "point") {
            const auto si = specIndex.find(
                reply.at("spec").asString());
            const auto wi = wlIndex.find(
                reply.at("workload").asString());
            if (si == specIndex.end() || wi == wlIndex.end()) {
                fatal("server sent unknown point (",
                      reply.at("spec").asString(), ", ",
                      reply.at("workload").asString(),
                      ") — client/server version skew?");
            }
            if (seen[si->second][wi->second])
                fatal("server sent a duplicate point reply");
            seen[si->second][wi->second] = true;
            if (!record.has_value())
                fatal("server sent a point reply without a result");
            grid[si->second][wi->second] = std::move(*record);
            ++received;
            if (reply.at("cache_hit").asBool())
                ++cacheHits;
            else if (!reply.at("coalesced").asBool())
                ++computed;
            if (reply.at("coalesced").asBool())
                ++coalesced;
        } else if (kind == "done") {
            done = true;
        } else {
            fatal("unexpected server reply '", kind, "'");
        }
    }
    if (received != expected) {
        fatal("server completed after ", received, " of ", expected,
              " points");
    }
    std::fprintf(stderr,
                 "[drsim bench] served by %s: %zu points, "
                 "%llu cache hits, %llu computed, %llu coalesced\n",
                 hostPort.c_str(), expected,
                 static_cast<unsigned long long>(cacheHits),
                 static_cast<unsigned long long>(computed),
                 static_cast<unsigned long long>(coalesced));

    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results.push_back(ExperimentResult{
            specs[i], SuiteResult(std::move(grid[i]))});
    }
    return results;
}

} // namespace

exp::PointRunner
servedPoints(const std::string &hostPort, const exp::RunContext &ctx,
             const exp::ExperimentDef &def, const exp::SweepSpec *spec)
{
    json::Writer w;
    w.beginObject();
    w.key("verb").value("run");
    if (spec != nullptr)
        exp::writeSweepSpec(w.key("spec"), *spec);
    else
        w.key("experiment").value(def.name);
    w.key("scale").value(ctx.scale);
    w.key("max_committed").value(ctx.maxCommitted);
    if (ctx.sampling.enabled()) {
        w.key("sampling").beginObject();
        writeSamplingMembers(w, ctx.sampling);
        w.endObject();
    }
    if (!ctx.predictor.empty())
        w.key("predictor").value(ctx.predictor);
    if (ctx.resultBuses >= 0)
        w.key("result_buses").value(ctx.resultBuses);
    return [hostPort, request = w.endObject().str()](
               const std::vector<ExperimentSpec> &specs,
               const std::vector<Workload> &suite) {
        return runViaServer(hostPort, request, specs, suite);
    };
}

int
printServerStats(const std::string &hostPort)
{
    ServeClient client(hostPort);
    client.sendLine("{\"verb\":\"stats\"}");
    const std::optional<std::string> line = client.readLine();
    if (!line.has_value())
        fatal("server closed the connection before replying");
    std::printf("%s\n", line->c_str());
    return 0;
}

} // namespace serve
} // namespace drsim
