/**
 * @file
 * Client side of the `drsim serve` protocol (docs/SERVER.md): the
 * plumbing behind `drsim bench --server HOST:PORT`.
 *
 * The design constraint is byte-identity: a sweep served from the
 * daemon must produce the same stdout tables and the same schema-v2
 * artifact as a direct local run.  The client therefore does *not*
 * print anything the server sends.  A served run goes through the
 * same driver as a local one (exp::runExperiment: banner, expansion,
 * suite build, print, export); only the point computation differs.
 * servedPoints() supplies it: it streams the daemon's point records
 * and reassembles them into the exact ExperimentResult vector a local
 * runExperiments() call would have built.  Everything the server adds
 * (cache provenance, progress) goes to stderr.
 */

#ifndef DRSIM_SERVE_CLIENT_HH
#define DRSIM_SERVE_CLIENT_HH

#include <optional>
#include <string>

#include "common/json.hh"
#include "exp/registry.hh"
#include "exp/spec_file.hh"
#include "sim/simulator.hh"

namespace drsim {
namespace serve {

/** One NDJSON connection to a `drsim serve` daemon. */
class ServeClient
{
  public:
    /** Connect to "HOST:PORT" (IPv4); fatal() on refusal. */
    explicit ServeClient(const std::string &hostPort);
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Send one request line; fatal() on a broken connection. */
    void sendLine(const std::string &line);

    /** Next reply line, or std::nullopt at EOF. */
    std::optional<std::string> readLine();

    /** readLine() + parse; fatal() on EOF or malformed JSON. */
    json::Value readReply();

    /** readReply() that streams a point reply's "result" record into
     *  @p record (reset first) instead of the returned tree. */
    json::Value readReply(std::optional<SimResult> &record);

  private:
    int fd_ = -1;
    /** Received bytes.  The next unreturned line starts at
     *  lineStart_, and [lineStart_, scanned_) holds no '\n', so each
     *  byte is searched once however many pieces its line came in. */
    std::string buffer_;
    std::size_t lineStart_ = 0;
    std::size_t scanned_ = 0;
};

/**
 * The point computation of a served run, for exp::runExperiment():
 * one run request to the daemon at @p hostPort carrying ctx's run
 * options and naming the registered experiment def.name — or, when
 * @p spec is non-null (def was built from it), the inline sweep spec.
 * fatal() on a server error or a reply that does not match the
 * locally expanded points.
 */
exp::PointRunner servedPoints(const std::string &hostPort,
                              const exp::RunContext &ctx,
                              const exp::ExperimentDef &def,
                              const exp::SweepSpec *spec = nullptr);

/** Print the daemon's stats reply (raw JSON line) to stdout. */
int printServerStats(const std::string &hostPort);

} // namespace serve
} // namespace drsim

#endif // DRSIM_SERVE_CLIENT_HH
