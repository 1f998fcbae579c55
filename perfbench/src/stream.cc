/**
 * @file
 * The `serve_stream` workload: a closed-loop client on two ServeClient
 * connections replaying a seeded Zipf-like stream of single-config
 * inline-spec requests (the fig7 configs x the four predictors, nine
 * points each) against a fresh `drsim_serve` with a 2-worker pool.
 * Each round starts from a cache directory pre-filled with a seeded
 * third of the keys the stream touches, so one round mixes disk-tier
 * reads, compute-and-store writes and memory-tier repeats.
 */

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "bpred/predictor.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "exp/spec_file.hh"
#include "serve/client.hh"
#include "serve/point_cache.hh"
#include "serve/result_io.hh"
#include "workloads/digest.hh"

namespace drsim {
namespace bench {
namespace {

namespace fs = std::filesystem;

/** One request of the key space: a fig7 config under one predictor.
 *  The stratum is the config's (model, width, cache) cell. */
struct RequestKey
{
    std::string specJson;
    std::string predictor;
    std::size_t stratum = 0;
};

std::vector<RequestKey>
requestSpace()
{
    std::vector<RequestKey> space;
    std::map<std::tuple<int, int, int>, std::size_t> strata;
    for (const ExperimentSpec &s : fig7Specs(false)) {
        const CoreConfig &c = s.config;
        std::ostringstream doc;
        doc << "{\"name\":\"fig7pt\",\"axes\":{\"model\":[\""
            << exceptionModelName(c.exceptionModel) << "\"],\"width\":["
            << c.issueWidth << "],\"regs\":[" << c.numPhysRegs
            << "],\"cache\":[\"" << cacheKindName(c.cacheKind)
            << "\"]}}";
        const std::size_t stratum =
            strata
                .emplace(std::make_tuple(int(c.exceptionModel),
                                         c.issueWidth, int(c.cacheKind)),
                         strata.size())
                .first->second;
        for (const std::string &p : predictorSpecs())
            space.push_back({doc.str(), p, stratum});
    }
    return space;
}

/** The expanded config a request asks for, built exactly as the
 *  daemon builds it from the inline spec. */
ExperimentSpec
expandRequest(const RequestKey &key)
{
    std::vector<ExperimentSpec> specs =
        exp::expandGrid(exp::toGrid(exp::parseSweepSpec(key.specJson)));
    ExperimentSpec s = specs.at(0);
    s.config.maxCommitted = 0;
    s.config.predictor = key.predictor;
    return s;
}

/**
 * Seeded stream of @p n requests over @p k distinct keys: every key
 * once, the remaining requests Zipf(1)-distributed over a seeded
 * ranking of the keys, then shuffled.  The seed decides which keys are
 * hot and the arrival order.  The key set itself is fixed: keys are
 * taken round-robin across the (model, width, cache) strata with regs
 * and predictors spread evenly, and every third one goes to @p prefill
 * (disk-tier reads); the rest are computed on first request, and
 * repeats hit the memory tier.  Which keys load from disk moves the
 * daemon's peak RSS by up to ~2x (large records parse into large
 * trees), so that choice is part of the workload, not of the seed.
 */
std::vector<std::size_t>
makeStream(std::uint64_t seed, std::size_t n, std::size_t k,
           const std::vector<RequestKey> &space,
           std::vector<std::size_t> *prefill)
{
    Rng rng(0x5eed5eedULL ^ (seed * 0x9e3779b97f4a7c15ULL));
    const auto shuffle = [&rng](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.below(i)]);
    };
    std::vector<std::vector<std::size_t>> strata;
    for (std::size_t i = 0; i < space.size(); ++i) {
        strata.resize(std::max(strata.size(), space[i].stratum + 1));
        strata[space[i].stratum].push_back(i);
    }
    std::vector<std::size_t> ranked;
    // Spread regs and predictors evenly: stratum members are ordered
    // regs-major, predictor-minor, and a stride of 9 walks both.
    for (std::size_t j = 0; ranked.size() < k; ++j)
        for (std::size_t c = 0; c < strata.size() && ranked.size() < k; ++c)
            ranked.push_back(
                strata[c][(9 * (j * strata.size() + c)) % strata[c].size()]);
    if (prefill != nullptr)
        for (std::size_t r = 1; r < k; r += 3)
            prefill->push_back(ranked[r]);
    shuffle(ranked);

    std::vector<double> cdf(k);
    double sum = 0.0;
    for (std::size_t r = 0; r < k; ++r)
        cdf[r] = (sum += 1.0 / double(r + 1));
    std::vector<std::size_t> keys = ranked;
    while (keys.size() < n) {
        const double u = rng.uniform() * sum;
        const std::size_t rank = std::size_t(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        keys.push_back(ranked[std::min(rank, k - 1)]);
    }
    shuffle(keys);
    return keys;
}

std::string
requestLine(std::size_t i, const RequestKey &key)
{
    return "{\"verb\":\"run\",\"id\":\"q" + std::to_string(i) +
           "\",\"spec\":" + key.specJson +
           ",\"scale\":" + std::to_string(kServeScale) +
           ",\"max_committed\":0,\"predictor\":\"" + key.predictor +
           "\"}";
}

/** A drsim_serve child process, stopped when this object goes. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &cache,
           const std::string &log)
    {
        // Empty the log first so a stale "listening" line from an
        // earlier daemon can never be read as this one's port.
        std::ofstream(log, std::ios::trunc);
        log_ = log;
        // posix_spawn (vfork-style) rather than fork: the cost of
        // starting the daemon must not depend on this client's size.
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
        posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        std::vector<std::string> env = {
            "DRSIM_JOBS=" + std::to_string(kServeJobs)};
        for (char **e = environ; *e != nullptr; ++e)
            if (std::strncmp(*e, "DRSIM_", 6) != 0)
                env.emplace_back(*e);
        std::vector<char *> envp;
        for (std::string &e : env)
            envp.push_back(e.data());
        envp.push_back(nullptr);
        const char *argv[] = {bin.c_str(), "--port", "0", "--cache",
                              cache.c_str(), nullptr};
        const int rc =
            ::posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                          const_cast<char *const *>(argv), envp.data());
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            fatal("cannot start ", bin, ": ", std::strerror(rc));
        }
    }

    /** Wait until the daemon logs "listening on HOST:PORT". */
    void
    awaitPort()
    {
        const double deadline = nowSeconds() + 30.0;
        while (port_ == 0) {
            std::ifstream in(log_);
            std::string line;
            while (std::getline(in, line)) {
                if (line.find("listening on ") != std::string::npos)
                    port_ = std::atoi(
                        line.substr(line.rfind(':') + 1).c_str());
            }
            if (port_ != 0)
                break;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                fatal("drsim_serve exited during start-up");
            }
            if (nowSeconds() > deadline)
                fatal("drsim_serve did not start within 30 s");
            ::usleep(500);
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }
    std::string hostPort() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }

    /** SIGTERM, drain, then SIGKILL after 10 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const double deadline = nowSeconds() + 10.0;
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowSeconds() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(1000);
        }
        pid_ = -1;
    }

  private:
    std::string log_;
    pid_t pid_ = -1;
    int port_ = 0;
};

/** Replies to one request, with client-side timestamps. */
struct Reply
{
    double sent = 0.0, acked = 0.0, done = 0.0;
    std::vector<std::string> points;
    std::string error;
};

/** One stream against one fresh daemon. */
struct StreamRun
{
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    std::vector<Reply> replies;
    json::Value stats;
    double daemonRssMb = 0.0;
    std::string error;
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Send one request and collect its replies through `done`. */
void
exchange(serve::ServeClient &client, const std::string &line, Reply &r)
{
    r.sent = nowSeconds();
    client.sendLine(line);
    while (true) {
        std::optional<std::string> got = client.readLine();
        if (!got) {
            r.error = "connection closed";
            return;
        }
        if (startsWith(*got, "{\"reply\":\"point\"")) {
            r.points.push_back(std::move(*got));
        } else if (startsWith(*got, "{\"reply\":\"ack\"")) {
            r.acked = nowSeconds();
        } else if (startsWith(*got, "{\"reply\":\"done\"")) {
            r.done = nowSeconds();
            return;
        } else {
            r.error = *got;
            return;
        }
    }
}

StreamRun
runStream(const Args &args, const std::vector<std::string> &lines,
          const std::string &cache, const std::string &log)
{
    StreamRun run;
    run.replies.resize(lines.size());
    try {
        const double t0 = nowSeconds();
        Daemon daemon(args.serveBin, cache, log);
        daemon.awaitPort();
        std::vector<std::unique_ptr<serve::ServeClient>> conns;
        for (int c = 0; c < kServeConnections; ++c) {
            conns.push_back(
                std::make_unique<serve::ServeClient>(daemon.hostPort()));
            conns.back()->sendLine("{\"verb\":\"ping\"}");
            if (conns.back()->readReply().at("reply").asString() != "pong")
                fatal("no pong from drsim_serve");
        }
        const double t1 = nowSeconds();
        run.setupSeconds = t1 - t0;

        std::atomic<std::size_t> next{0};
        std::vector<std::string> errors(conns.size());
        std::vector<std::jthread> threads;
        for (std::size_t c = 0; c < conns.size(); ++c) {
            threads.emplace_back([&, c] {
                try {
                    for (std::size_t i = next++; i < lines.size();
                         i = next++)
                        exchange(*conns[c], lines[i], run.replies[i]);
                } catch (const std::exception &e) {
                    errors[c] = e.what();
                }
            });
        }
        for (std::jthread &t : threads)
            t.join();
        run.wallSeconds = nowSeconds() - t1;
        for (const std::string &e : errors)
            if (!e.empty())
                fatal(e);

        conns[0]->sendLine("{\"verb\":\"stats\"}");
        run.stats = conns[0]->readReply();
        run.daemonRssMb = peakRssMb(daemon.pid());
        conns.clear();
        daemon.stop();
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    return run;
}

double
statOf(const json::Value &stats, const char *key)
{
    const json::Value *v = stats.isObject() ? stats.find(key) : nullptr;
    return v != nullptr ? v->asNumber() : 0.0;
}

ServedProbe
summarize(const StreamRun &run)
{
    ServedProbe p;
    std::vector<double> ack, pts;
    for (const Reply &r : run.replies) {
        if (r.done > 0.0) {
            ack.push_back(1e3 * (r.acked - r.sent));
            pts.push_back(1e3 * (r.done - r.acked));
        }
    }
    p.ackP50Ms = quantile(ack, 0.5);
    p.pointsP50Ms = quantile(pts, 0.5);
    p.memoryHits = statOf(run.stats, "memory_hits");
    p.diskHits = statOf(run.stats, "disk_hits");
    p.computed = statOf(run.stats, "computed");
    p.coalesced = statOf(run.stats, "coalesced");
    const double points = statOf(run.stats, "points");
    p.hitFrac = points > 0 ? (p.memoryHits + p.diskHits) / points : 0.0;
    return p;
}

/** Fill @p dir with the prefill keys' points, computed in-process and
 *  stored through PointCache under the keys the daemon derives. */
void
prefillCache(const std::string &dir, const std::vector<RequestKey> &space,
             const std::vector<std::size_t> &keys,
             const std::vector<Workload> &suite)
{
    std::vector<ExperimentSpec> specs;
    for (std::size_t k : keys)
        specs.push_back(expandRequest(space[k]));
    std::vector<SimResult> out(specs.size() * suite.size());
    ThreadPool pool(kSweepJobs);
    pool.parallelFor(out.size(), [&](std::size_t i) {
        out[i] = simulate(specs[i / suite.size()].config,
                          suite[i % suite.size()]);
    });
    serve::PointCache cache(dir, serve::pointCacheRev(), 0);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Workload &w = suite[i % suite.size()];
        cache.store({specs[i / suite.size()].config, w.spec->name,
                     drsim::programDigest(w.program)},
                    out[i]);
    }
}

} // namespace

ServedProbe
probeServed(const Args &args, int requests)
{
    const std::vector<RequestKey> space = requestSpace();
    std::vector<std::string> lines;
    for (std::size_t k :
         makeStream(args.seed, std::size_t(requests),
                    std::size_t(requests) / 2, space, nullptr))
        lines.push_back(requestLine(lines.size(), space[k]));
    const std::string cache = args.work + "/probe-cache";
    fs::remove_all(cache);
    const StreamRun run =
        runStream(args, lines, cache, args.work + "/probe-serve.log");
    fs::remove_all(cache);
    if (!run.error.empty())
        fatal("served probe failed: ", run.error);
    return summarize(run);
}

int
runServeStream(const Args &args)
{
    const std::vector<RequestKey> space = requestSpace();
    std::vector<std::size_t> prefill;
    const std::vector<std::size_t> keys =
        makeStream(args.seed, kStreamRequests, kStreamKeys, space, &prefill);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < keys.size(); ++i)
        lines.push_back(requestLine(i, space[keys[i]]));

    // The daemon serves seed-0 kernels at the request scale.
    const std::vector<Workload> suite = buildSpec92Suite(kServeScale);

    // Pre-filled cache template, built once per run (untimed), copied
    // fresh for every round.
    const std::string tmpl =
        args.work + "/serve-template-" + std::to_string(args.seed);
    if (!fs::exists(tmpl + "/.complete")) {
        fs::remove_all(tmpl);
        prefillCache(tmpl, space, prefill, suite);
        std::ofstream(tmpl + "/.complete") << "ok\n";
    }
    const std::string cache = args.work + "/round-cache";
    fs::remove_all(cache);
    fs::copy(tmpl, cache, fs::copy_options::recursive);
    fs::remove(cache + "/.complete");

    // Extra daemon start-ups on the same cache directory, so a run
    // holds several set-up samples besides the measured stream's.
    std::vector<double> setups;
    for (int i = 0; i < 3; ++i) {
        const StreamRun warm =
            runStream(args, {}, cache, args.work + "/serve.log");
        if (!warm.error.empty())
            fatal("daemon start-up failed: ", warm.error);
        setups.push_back(warm.setupSeconds);
    }

    const double t0 = nowSeconds();
    const StreamRun run =
        runStream(args, lines, cache, args.work + "/serve.log");
    setups.push_back(run.setupSeconds);
    const double round_wall = nowSeconds() - t0;
    fs::remove_all(cache);

    // Oracle: every request completes with nine valid points; a seeded
    // sample of served records must equal in-process simulate().
    Checked c;
    std::vector<std::uint64_t> lengths;
    for (const Workload &w : suite)
        lengths.push_back(functionalLength(w.program));
    std::vector<ExperimentResult> results;
    std::vector<double> lat;
    double insts = 0.0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Reply &r = run.replies[i];
        ++c.attempted;
        const std::string where = "request q" + std::to_string(i);
        if (!run.error.empty() || !r.error.empty() || r.done <= 0.0 ||
            r.points.size() != suite.size()) {
            c.fail(where + ": " + (r.error.empty() ? run.error : r.error));
            continue;
        }
        lat.push_back(1e3 * (r.done - r.sent));
        std::vector<SimResult> runs(suite.size());
        Checked pc;
        for (const std::string &line : r.points) {
            const json::Value v = json::parse(line);
            SimResult res = serve::parsePointRecord(v.at("result"));
            std::size_t w = 0;
            while (w < suite.size() &&
                   suite[w].spec->name != v.at("workload").asString())
                ++w;
            if (w == suite.size()) {
                pc.fail(where + ": unknown workload");
                continue;
            }
            checkPoint(res, lengths[w], where, pc);
            insts += double(res.proc.committed);
            runs[w] = std::move(res);
        }
        if (pc.failed != 0) {
            c.fail(pc.why);
            continue;
        }
        results.push_back({expandRequest(space[keys[i]]),
                           SuiteResult(std::move(runs))});
    }

    // Seeded sample of served points re-simulated in-process.
    std::vector<std::pair<std::size_t, std::size_t>> sample;
    Rng pick(args.seed * 0x2545f4914f6cdd1dULL + 7);
    for (int k = 0; k < 8 && !results.empty(); ++k)
        sample.emplace_back(pick.below(results.size()),
                            pick.below(suite.size()));
    std::vector<SimResult> local(sample.size());
    std::vector<double> local_s(sample.size());
    double verify_s = 0.0;
    if (args.trace) {
        // The first verify of each program pays the analysis.
        const double v0 = nowSeconds();
        for (const Workload &w : suite)
            verifyProgram(w.program);
        verify_s = nowSeconds() - v0;
    }
    const double s0 = nowSeconds();
    {
        ThreadPool pool(kServeJobs);
        pool.parallelFor(sample.size(), [&](std::size_t i) {
            const double p0 = nowSeconds();
            local[i] = simulate(results[sample[i].first].spec.config,
                                suite[sample[i].second]);
            local_s[i] = nowSeconds() - p0;
        });
    }
    const double sample_wall = nowSeconds() - s0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const SimResult &served =
            results[sample[i].first].suite.runs()[sample[i].second];
        if (serve::pointRecordJson(served) !=
            serve::pointRecordJson(local[i]))
            c.fail("served point differs from in-process simulate(): " +
                   results[sample[i].first].spec.name + "/" +
                   served.workload);
    }

    // Tier accounting: the documented invariant, and the pre-filled
    // template must actually be read (its keys match the daemon's).
    const ServedProbe sp = summarize(run);
    const double points = statOf(run.stats, "points");
    if (run.error.empty() &&
        (sp.memoryHits + sp.diskHits + sp.computed + sp.coalesced +
             statOf(run.stats, "point_errors") != points ||
         (!prefill.empty() && sp.diskHits == 0.0)))
        c.fail("daemon tier counters inconsistent");

    std::vector<const SimResult *> all;
    for (const ExperimentResult &r : results)
        for (const SimResult &s : r.suite.runs())
            all.push_back(&s);

    JsonLine out;
    out.str("mode", args.mode);
    out.num("setup_s", run.setupSeconds);
    out.list("setup_samples", setups);
    out.num("sweep_s", run.wallSeconds);
    out.num("round_s", round_wall);
    out.num("insts", insts);
    out.num("rss_mb", run.daemonRssMb);
    out.list("lat_ms", lat);
    out.num("attempted", double(c.attempted));
    out.num("failed", double(c.failed));
    out.str("why", c.why);
    out.str("digest", statsDigest(all));
    out.num("memory_hits", sp.memoryHits);
    out.num("disk_hits", sp.diskHits);
    out.num("computed", sp.computed);
    out.num("coalesced", sp.coalesced);

    if (args.verify) {
        // Seed self-test: another seed must give another stream.
        const std::vector<std::size_t> other =
            makeStream(args.seed + 1, kStreamRequests, kStreamKeys, space,
                       nullptr);
        out.boolean("seed_selftest", other != keys);
        out.str("seed_selftest_why",
                other != keys ? "" : "seed does not reach the stream");
    }

    if (args.trace && results.empty())
        fatal("no request completed: ", c.why);
    if (args.trace) {
        double covered = run.setupSeconds;
        for (double l : lat)
            covered += 1e-3 * l / kServeConnections;
        out.num("span_cover", covered / round_wall);

        std::vector<double> build;
        for (int i = 0; i < 3; ++i) {
            const double b0 = nowSeconds();
            buildSpec92Suite(kServeScale);
            build.push_back(nowSeconds() - b0);
        }
        out.num("workloads.build_ms", 1e3 * quantile(build, 0.5));
        out.num("analysis.verify_ms", 1e3 * verify_s);
        const double e0 = nowSeconds();
        for (std::size_t k : keys)
            expandRequest(space[k]);
        out.num("exp.expand_ms",
                1e3 * (nowSeconds() - e0) / double(keys.size()));

        reportCore(pointers(local), local_s, out);
        out.num("sim.simulate_p50_ms", 1e3 * quantile(local_s, 0.5));
        out.num("sim.simulate_p95_ms", 1e3 * quantile(local_s, 0.95));
        double busy = 0.0;
        for (double s : local_s)
            busy += s;
        out.num("sim.pool_util", busy / (sample_wall * kServeJobs));
        probeSampledKernels(args.seed, out);
        probeComponents(suite, out);
        probeCodecs(results, suite, kServeScale, args.work, out);
        reportServed(sp, out);
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace bench
} // namespace drsim
