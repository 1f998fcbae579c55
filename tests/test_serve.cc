/**
 * @file
 * Tests of the simulation-as-a-service layer (src/serve): the
 * lossless point-record round trip, the content-addressed on-disk
 * cache (persistence across a simulated daemon restart, key
 * sensitivity, corruption recovery, code-version invalidation), the
 * coalescing sweep service (identical concurrent requests cost one
 * simulation), byte-identity of served artifacts against the direct
 * runner for the table1 and fig7 reproductions, and a live-socket
 * exercise of the NDJSON wire protocol (docs/SERVER.md) including
 * malformed requests and the per-request jobs rejection.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "exp/registry.hh"
#include "exp/spec_file.hh"
#include "serve/client.hh"
#include "serve/point_cache.hh"
#include "serve/result_io.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "sim/runner.hh"
#include "workloads/digest.hh"
#include "workloads/kernels.hh"

using namespace drsim;
using namespace drsim::exp;
using namespace drsim::serve;

namespace {

/** Self-deleting scratch directory for cache tests. */
class TmpDir
{
  public:
    explicit TmpDir(const char *tag)
    {
        path_ = std::filesystem::temp_directory_path() /
                ("drsim_serve_test_" + std::string(tag) + "_" +
                 std::to_string(::getpid()));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TmpDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

/** A small, fast point: one suite benchmark at scale 1, capped. */
PointKey
smallKey(const Workload &w, int regs = 64)
{
    PointKey key;
    key.config = paperConfig(4, regs);
    key.config.maxCommitted = 2000;
    key.workload = w.spec->name;
    key.digest = programDigest(w.program);
    return key;
}

/**
 * Run a grid experiment entirely through a SweepService (fan out all
 * points, reassemble in grid order) and return the schema-v2 JSON —
 * the served counterpart of runExperiments() + resultsJson().
 */
std::string
servedResultsJson(SweepService &service, const ExperimentDef &def,
                  const RunContext &ctx)
{
    const std::vector<ExperimentSpec> specs =
        expandExperiment(def, ctx);
    auto suite = std::make_shared<std::vector<Workload>>(
        buildSuite(def, ctx));

    std::vector<std::string> digests;
    for (const Workload &w : *suite)
        digests.push_back(programDigest(w.program));

    std::vector<std::vector<SimResult>> grid(specs.size());
    for (auto &row : grid)
        row.resize(suite->size());
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = specs.size() * suite->size();
    for (std::size_t si = 0; si < specs.size(); ++si) {
        for (std::size_t wi = 0; wi < suite->size(); ++wi) {
            PointKey key;
            key.config = specs[si].config;
            key.workload = (*suite)[wi].spec->name;
            key.digest = digests[wi];
            std::shared_ptr<const Workload> wl(suite, &(*suite)[wi]);
            service.requestPoint(
                key, wl, [&, si, wi](const PointOutcome &outcome) {
                    EXPECT_TRUE(outcome.ok()) << outcome.error;
                    if (outcome.ok())
                        grid[si][wi] = *outcome.result;
                    std::lock_guard<std::mutex> lock(m);
                    --remaining;
                    cv.notify_one();
                });
        }
    }
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return remaining == 0; });
    }

    std::vector<ExperimentResult> results;
    for (std::size_t si = 0; si < specs.size(); ++si) {
        results.push_back(ExperimentResult{
            specs[si], SuiteResult(std::move(grid[si]))});
    }
    const RunInfo info{def.name, ctx.scale, ctx.maxCommitted};
    return resultsJson(info, results);
}

std::string
directResultsJson(const ExperimentDef &def, const RunContext &ctx)
{
    const std::vector<ExperimentSpec> specs =
        expandExperiment(def, ctx);
    const std::vector<Workload> suite = buildSuite(def, ctx);
    const std::vector<ExperimentResult> results =
        runExperiments(specs, suite, 4);
    const RunInfo info{def.name, ctx.scale, ctx.maxCommitted};
    return resultsJson(info, results);
}

TEST(PointRecord, RoundTripsEveryField)
{
    const Workload w = buildWorkload("tomcatv", 1);
    PointKey key = smallKey(w);
    const SimResult direct = simulate(key.config, w);

    const std::string text = pointRecordJson(direct);
    const SimResult parsed = parsePointRecord(text);

    // The serialization is deterministic, so equal records mean
    // equal serializations — and it covers every field.
    EXPECT_EQ(pointRecordJson(parsed), text);
    EXPECT_EQ(parsed.workload, direct.workload);
    EXPECT_EQ(parsed.fpIntensive, direct.fpIntensive);
    EXPECT_EQ(parsed.stopReason, direct.stopReason);
    EXPECT_EQ(parsed.proc.cycles, direct.proc.cycles);
    EXPECT_EQ(parsed.proc.committed, direct.proc.committed);
    EXPECT_EQ(parsed.proc.dqDepth.counts(),
              direct.proc.dqDepth.counts());
    EXPECT_EQ(parsed.lifetime[0].counts(),
              direct.lifetime[0].counts());
    EXPECT_EQ(parsed.dcache.loads, direct.dcache.loads);
    EXPECT_EQ(parsed.loadMissRate, direct.loadMissRate);
}

TEST(PointRecord, RejectsVersionSkewAndCorruption)
{
    const Workload w = buildWorkload("compress", 1);
    const SimResult r = simulate(smallKey(w).config, w);
    std::string text = pointRecordJson(r);

    EXPECT_THROW(parsePointRecord("{\"record\":\"drsim-point-v999\"}"),
                 FatalError);
    EXPECT_THROW(parsePointRecord("[1,2,3]"), FatalError);
    // Truncation cannot parse.
    EXPECT_THROW(parsePointRecord(text.substr(0, text.size() / 2)),
                 FatalError);
}

/** @p v with one object member removed, once for every member at
 *  any depth. */
std::vector<json::Value>
withOneMemberRemoved(const json::Value &v)
{
    std::vector<json::Value> out;
    if (!v.isObject())
        return out;
    const auto &members = v.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
        auto fewer = members;
        fewer.erase(fewer.begin() + std::ptrdiff_t(i));
        out.push_back(json::Value::makeObject(std::move(fewer)));
        for (json::Value &inner : withOneMemberRemoved(members[i].second)) {
            auto edited = members;
            edited[i].second = std::move(inner);
            out.push_back(json::Value::makeObject(std::move(edited)));
        }
    }
    return out;
}

TEST(PointRecord, RejectsARecordMissingAnyMember)
{
    // The encoder and decoder walk the same member tables, so a
    // record that lacks any one member the encoder wrote cannot
    // decode.
    const Workload w = buildWorkload("compress", 1);
    const json::Value record =
        json::parse(pointRecordJson(simulate(smallKey(w).config, w)));
    ASSERT_NO_THROW(parsePointRecord(record));
    const std::vector<json::Value> edited = withOneMemberRemoved(record);
    // 11 top-level, 8 sampled, 23 proc and 7 dcache members.
    EXPECT_EQ(edited.size(), 49u);
    for (const json::Value &doc : edited)
        EXPECT_THROW(parsePointRecord(doc), FatalError)
            << json::serialize(doc);
}

TEST(PointRecord, StreamingDecoderTakesAnyMemberOrderOnce)
{
    // The decoder fills fields as their members stream past, so the
    // writer's member order is not part of the format; each member
    // must come exactly once, and members it does not know are
    // skipped.
    const Workload w = buildWorkload("compress", 1);
    const std::string text =
        pointRecordJson(simulate(smallKey(w).config, w));
    const json::Value record = json::parse(text);

    std::vector<json::Value::Member> members = record.members();
    std::reverse(members.begin(), members.end());
    for (json::Value::Member &m : members) {
        if (m.first == "proc") {
            std::vector<json::Value::Member> inner = m.second.members();
            std::reverse(inner.begin(), inner.end());
            m.second = json::Value::makeObject(std::move(inner));
        }
    }
    const std::string reversed =
        json::serialize(json::Value::makeObject(members));
    ASSERT_NE(reversed, text);
    EXPECT_EQ(pointRecordJson(parsePointRecord(reversed)), text);

    std::vector<json::Value::Member> extra = record.members();
    extra.emplace_back("annotation", json::Value::makeString("x"));
    EXPECT_EQ(pointRecordJson(parsePointRecord(
                  json::Value::makeObject(extra))),
              text);

    std::vector<json::Value::Member> twice = record.members();
    twice.push_back(twice.front());
    EXPECT_THROW(parsePointRecord(json::Value::makeObject(twice)),
                 FatalError);
}

TEST(JsonSerialize, RoundTripsCompactDocuments)
{
    const std::string doc =
        "{\"name\":\"x\",\"axes\":{\"width\":[4,8],\"model\":"
        "[\"precise\"]},\"export\":false,\"pi\":3.25,\"neg\":-7,"
        "\"big\":9007199254740992,\"null\":null}";
    EXPECT_EQ(json::serialize(json::parse(doc)), doc);
}

TEST(PointCache, PersistsAcrossReopen)
{
    TmpDir dir("persist");
    const Workload w = buildWorkload("espresso", 1);
    const PointKey key = smallKey(w);
    const SimResult r = simulate(key.config, w);

    {
        PointCache cache(dir.str(), "test-rev");
        EXPECT_FALSE(cache.load(key).has_value());
        cache.store(key, r);
        EXPECT_EQ(cache.stats().stores, 1u);
    }
    // A fresh instance over the same directory — the daemon-restart
    // case — must serve the stored result.
    PointCache reopened(dir.str(), "test-rev");
    const auto hit = reopened.load(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(pointRecordJson(*hit), pointRecordJson(r));
    EXPECT_EQ(reopened.stats().hits, 1u);
    EXPECT_EQ(reopened.stats().misses, 0u);
}

TEST(PointCache, KeyCoversEveryResultAffectingInput)
{
    const Workload w = buildWorkload("compress", 1);
    const PointKey base = smallKey(w);
    const std::string baseText = pointKeyText(base, "r");

    PointKey regs = base;
    regs.config.numPhysRegs = 128;
    EXPECT_NE(pointKeyText(regs, "r"), baseText);

    PointKey model = base;
    model.config.exceptionModel = ExceptionModel::Imprecise;
    EXPECT_NE(pointKeyText(model, "r"), baseText);

    PointKey digest = base;
    digest.digest = "0000000000000000";
    EXPECT_NE(pointKeyText(digest, "r"), baseText);

    PointKey pred = base;
    pred.config.predictor = "gshare";
    EXPECT_NE(pointKeyText(pred, "r"), baseText);

    PointKey buses = base;
    buses.config.resultBuses = 2;
    EXPECT_NE(pointKeyText(buses, "r"), baseText);

    // Different workload *programs* (not just names) get different
    // digests, so a generator change silently invalidates.
    EXPECT_NE(programDigest(buildWorkload("compress", 1).program),
              programDigest(buildWorkload("compress", 2).program));

    // The code version is part of the key.
    EXPECT_NE(pointKeyText(base, "r2"), baseText);

    // Tripwire: growing CoreConfig without revisiting pointKeyText()
    // would silently serve stale cache entries for the new knob.  If
    // this fails, add the field to the key text (or document why it
    // cannot affect results) and then update the expected size.  x86-64 / libstdc++, matching CI.
    EXPECT_EQ(sizeof(CoreConfig), 208u)
        << "CoreConfig changed — audit pointKeyText() key coverage";
}

TEST(PointCache, KeyCoversSamplingParameters)
{
    // Sampled results are statistical estimates, never interchangeable
    // with full-detail records — every sampling parameter must be
    // key-affecting, and each parameter independently so.
    const Workload w = buildWorkload("compress", 1);
    const PointKey base = smallKey(w);
    const std::string baseText = pointKeyText(base, "r");

    PointKey sampled = base;
    sampled.config.sampling.interval = 40000;
    sampled.config.sampling.window = 1000;
    sampled.config.sampling.warmup = 4000;
    const std::string sampledText = pointKeyText(sampled, "r");
    EXPECT_NE(sampledText, baseText);

    PointKey interval = sampled;
    interval.config.sampling.interval = 50000;
    EXPECT_NE(pointKeyText(interval, "r"), sampledText);

    PointKey window = sampled;
    window.config.sampling.window = 2000;
    EXPECT_NE(pointKeyText(window, "r"), sampledText);

    PointKey warmup = sampled;
    warmup.config.sampling.warmup = 3000;
    EXPECT_NE(pointKeyText(warmup, "r"), sampledText);
}

TEST(PointRecord, RoundTripsSampledBlock)
{
    const Workload w = buildWorkload("compress", 2);
    PointKey key = smallKey(w);
    key.config.maxCommitted = 0;
    key.config.sampling.interval = 2000;
    key.config.sampling.window = 200;
    key.config.sampling.warmup = 400;
    const SimResult direct = simulate(key.config, w);
    ASSERT_TRUE(direct.sampled.enabled);
    ASSERT_GT(direct.sampled.windows, 0u);

    const std::string text = pointRecordJson(direct);
    const SimResult parsed = parsePointRecord(text);
    EXPECT_EQ(pointRecordJson(parsed), text);
    EXPECT_TRUE(parsed.sampled.enabled);
    EXPECT_EQ(parsed.sampled.windows, direct.sampled.windows);
    EXPECT_EQ(parsed.sampled.fastForwarded,
              direct.sampled.fastForwarded);
    EXPECT_EQ(parsed.sampled.warmupInsts, direct.sampled.warmupInsts);
    EXPECT_EQ(parsed.sampled.measuredInsts,
              direct.sampled.measuredInsts);
    EXPECT_EQ(parsed.sampled.measuredCycles,
              direct.sampled.measuredCycles);
    EXPECT_EQ(parsed.sampled.ipcEstimate, direct.sampled.ipcEstimate);
    EXPECT_EQ(parsed.sampled.ci95, direct.sampled.ci95);
}

TEST(PointCache, CorruptEntryRecomputesInsteadOfCrashing)
{
    TmpDir dir("corrupt");
    const Workload w = buildWorkload("compress", 1);
    const PointKey key = smallKey(w);
    const SimResult r = simulate(key.config, w);

    PointCache cache(dir.str(), "test-rev");
    cache.store(key, r);
    const std::string path = cache.entryPath(key);

    // Truncate the envelope mid-file.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"drsim_cache\":1,\"key\":\"tru";
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // The bad entry was unlinked so it cannot poison the next load.
    EXPECT_FALSE(std::filesystem::exists(path));

    // Recompute-and-store works again.
    cache.store(key, r);
    EXPECT_TRUE(cache.load(key).has_value());

    // Arbitrary garbage is handled the same way.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "not json at all";
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 2u);
}

TEST(PointCache, RevBumpRetiresOldEntries)
{
    TmpDir dir("rev");
    const Workload w = buildWorkload("compress", 1);
    const PointKey key = smallKey(w);
    const SimResult r = simulate(key.config, w);

    PointCache v1(dir.str(), "sim-v1");
    v1.store(key, r);
    ASSERT_TRUE(v1.load(key).has_value());

    // Same directory, bumped code version: miss, not a wrong hit.
    PointCache v2(dir.str(), "sim-v2");
    EXPECT_FALSE(v2.load(key).has_value());
}

TEST(SweepService, IdenticalConcurrentRequestsCoalesce)
{
    TmpDir dir("coalesce");
    // One worker, and a plug point whose completion callback blocks
    // until every coalescing request has been submitted: the worker
    // cannot reach the shared point's compute task early, so all
    // five requests deterministically find the in-flight entry.
    SweepService service(dir.str(), 1);

    const Workload w = buildWorkload("tomcatv", 2);
    const PointKey key = smallKey(w);
    auto wl = std::make_shared<const Workload>(w);

    std::mutex m;
    std::condition_variable cv;
    bool submitted = false;
    std::size_t remaining = 5;
    std::size_t coalesced = 0;
    std::vector<std::string> records;
    service.requestPoint(smallKey(w, 128), wl,
                         [&](const PointOutcome &out) {
                             EXPECT_TRUE(out.ok()) << out.error;
                             std::unique_lock<std::mutex> lock(m);
                             cv.wait(lock, [&] { return submitted; });
                         });
    for (std::size_t i = 0; i < 5; ++i) {
        service.requestPoint(key, wl, [&](const PointOutcome &out) {
            EXPECT_TRUE(out.ok()) << out.error;
            std::lock_guard<std::mutex> lock(m);
            records.push_back(pointRecordJson(*out.result));
            if (out.coalesced)
                ++coalesced;
            --remaining;
            cv.notify_one();
        });
    }
    {
        std::lock_guard<std::mutex> lock(m);
        submitted = true;
        cv.notify_all();
    }
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return remaining == 0; });
    }

    const SweepService::Stats stats = service.stats();
    EXPECT_EQ(stats.points, 6u);          // plug + 5 shared
    EXPECT_EQ(stats.computed, 2u);        // one simulation per key
    EXPECT_EQ(stats.coalesced, 4u);
    EXPECT_EQ(stats.inFlight, 0u);
    EXPECT_EQ(service.cache().stats().stores, 2u);
    EXPECT_EQ(coalesced, 4u);
    for (const std::string &rec : records)
        EXPECT_EQ(rec, records.front());

    // A later identical request is a memory hit, still no simulation.
    const PointOutcome again = service.runPoint(key, w);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_EQ(service.stats().computed, 2u);
    EXPECT_EQ(service.stats().memoryHits, 1u);
}

TEST(SweepService, UnwritableCacheStillDeliversComputedPoint)
{
    TmpDir dir("unwritable");
    SweepService service(dir.str(), 1);
    const Workload w = buildWorkload("compress", 1);
    const PointKey key = smallKey(w);

    // A regular file where the key's fan-out directory belongs: the
    // disk store must fail, but the point simulated fine.
    const std::filesystem::path entry = service.cache().entryPath(key);
    std::ofstream(entry.parent_path()) << "not a directory";

    const PointOutcome out = service.runPoint(key, w);
    EXPECT_TRUE(out.ok()) << out.error;
    EXPECT_FALSE(out.cacheHit);
    EXPECT_EQ(service.stats().computed, 1u);
    EXPECT_EQ(service.stats().errors, 0u);
    EXPECT_EQ(service.cache().stats().stores, 0u);

    // The result is still kept in memory.
    const PointOutcome again = service.runPoint(key, w);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_EQ(pointRecordJson(*again.result),
              pointRecordJson(*out.result));
    EXPECT_EQ(service.stats().memoryHits, 1u);
}

TEST(SweepService, MemoryHitSharesTheResidentResult)
{
    // A memory hit hands out the resident result itself: no delivery
    // copies a SimResult.
    TmpDir dir("shared");
    SweepService service(dir.str(), 1);
    const Workload w = buildWorkload("compress", 1);
    const PointKey key = smallKey(w);

    const PointOutcome first = service.runPoint(key, w);
    ASSERT_TRUE(first.ok()) << first.error;
    const PointOutcome hit = service.runPoint(key, w);
    ASSERT_TRUE(hit.ok()) << hit.error;
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(service.stats().memoryHits, 1u);
    ASSERT_NE(first.result, nullptr);
    EXPECT_EQ(hit.result.get(), first.result.get());
    EXPECT_EQ(pointRecordJson(*hit.result),
              pointRecordJson(simulate(key.config, w)));
}

TEST(SweepService, ServedTable1IsByteIdenticalToDirect)
{
    TmpDir dir("table1");
    const ExperimentDef *def = findExperiment("table1");
    ASSERT_NE(def, nullptr);
    RunContext ctx;
    ctx.scale = 1;
    ctx.maxCommitted = 2000;
    ctx.jobs = 4;

    const std::string direct = directResultsJson(*def, ctx);
    std::string cold, warm, reopened;
    {
        SweepService service(dir.str(), 4);
        cold = servedResultsJson(service, *def, ctx);
        warm = servedResultsJson(service, *def, ctx);
        const SweepService::Stats stats = service.stats();
        EXPECT_EQ(stats.computed, stats.points / 2);
        EXPECT_EQ(stats.memoryHits + stats.coalesced,
                  stats.points / 2);
    }
    {
        // Fresh service over the same cache directory: the simulated
        // daemon restart.  Everything must come from disk.
        SweepService service(dir.str(), 4);
        reopened = servedResultsJson(service, *def, ctx);
        EXPECT_EQ(service.stats().computed, 0u);
        EXPECT_EQ(service.cache().stats().hits,
                  service.stats().points);
    }
    EXPECT_EQ(cold, direct);
    EXPECT_EQ(warm, direct);
    EXPECT_EQ(reopened, direct);
}

TEST(SweepService, ServedFig7IsByteIdenticalToDirect)
{
    TmpDir dir("fig7");
    const ExperimentDef *def = findExperiment("fig7");
    ASSERT_NE(def, nullptr);
    RunContext ctx;
    ctx.scale = 1;
    ctx.maxCommitted = 1000;
    ctx.jobs = 4;

    const std::string direct = directResultsJson(*def, ctx);
    SweepService service(dir.str(), 4);
    EXPECT_EQ(servedResultsJson(service, *def, ctx), direct);
    EXPECT_EQ(servedResultsJson(service, *def, ctx), direct);
    EXPECT_EQ(service.stats().computed, service.stats().points / 2);
}

/** Everything the protocol promises, over a real loopback socket. */
TEST(Protocol, EndToEndOverLoopback)
{
    TmpDir dir("socket");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 4;
    opts.scale = 1;
    opts.maxCommitted = 2000;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    const std::string hostPort =
        "127.0.0.1:" + std::to_string(port);

    {
        ServeClient client(hostPort);

        client.sendLine("{\"verb\":\"ping\",\"id\":\"t1\"}");
        json::Value reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "pong");
        EXPECT_EQ(reply.at("id").asString(), "t1");

        // Malformed JSON gets an error reply, not a disconnect.
        client.sendLine("this is not json {");
        reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "error");
        EXPECT_EQ(reply.at("code").asString(), "bad-json");

        // The connection is still usable afterwards.
        client.sendLine("{\"verb\":\"ping\"}");
        EXPECT_EQ(client.readReply().at("reply").asString(), "pong");

        // Per-request job counts are rejected by design.
        client.sendLine("{\"verb\":\"run\",\"experiment\":\"table1\","
                        "\"jobs\":8}");
        reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "error");
        EXPECT_EQ(reply.at("code").asString(), "jobs-not-allowed");

        client.sendLine("{\"verb\":\"run\",\"experiment\":\"nope\"}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "unknown-experiment");
        client.sendLine(
            "{\"verb\":\"run\",\"experiment\":\"simspeed\"}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "custom-experiment");
        client.sendLine("{\"verb\":\"frobnicate\"}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "unknown-verb");
        client.sendLine("{\"verb\":\"run\",\"experiment\":\"table1\","
                        "\"typo\":1}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");

        // The daemon serves point records only; a request asking for
        // a whole results document names an unknown key.
        const std::string run =
            "{\"verb\":\"run\",\"id\":\"r1\",\"spec\":"
            "{\"name\":\"tiny\",\"axes\":{\"width\":[4],"
            "\"regs\":[64]}},\"scale\":1,\"max_committed\":2000";
        client.sendLine(run + ",\"document\":true}");
        reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "error");
        EXPECT_EQ(reply.at("code").asString(), "bad-request");

        // A one-spec sweep over the full suite.
        client.sendLine(run + "}");
        reply = client.readReply();
        ASSERT_EQ(reply.at("reply").asString(), "ack");
        const std::vector<Workload> suite = buildSpec92Suite(1);
        const std::uint64_t points = reply.at("points").asU64();
        EXPECT_EQ(points, suite.size());

        // The point records, in suite order, make the direct
        // runner's results document byte for byte.
        SweepSpec spec;
        spec.name = "tiny";
        spec.axes.push_back({"width", {4}, {}});
        spec.axes.push_back({"regs", {64}, {}});
        std::vector<ExperimentSpec> specs = expandGrid(toGrid(spec));
        for (ExperimentSpec &s : specs)
            s.config.maxCommitted = 2000;
        const RunInfo info{"tiny", 1, 2000};
        const std::string direct =
            resultsJson(info, runExperiments(specs, suite, 4));
        const auto servedJson =
            [&](const std::map<std::string, SimResult> &records) {
                std::vector<SimResult> row;
                for (const Workload &w : suite)
                    row.push_back(records.at(w.spec->name));
                return resultsJson(
                    info, {ExperimentResult{specs.front(),
                                            SuiteResult(std::move(row))}});
            };

        std::uint64_t got = 0, coldHits = 0;
        std::map<std::string, SimResult> records;
        for (;;) {
            reply = client.readReply();
            const std::string &kind = reply.at("reply").asString();
            if (kind == "point") {
                ++got;
                if (reply.at("cache_hit").asBool())
                    ++coldHits;
                EXPECT_EQ(reply.at("computed_at_rev").asString(),
                          pointCacheRev());
                // Each record must parse back losslessly.
                SimResult r = parsePointRecord(reply.at("result"));
                EXPECT_EQ(r.workload,
                          reply.at("workload").asString());
                records.emplace(r.workload, std::move(r));
            } else {
                ASSERT_EQ(kind, "done");
                break;
            }
        }
        EXPECT_EQ(got, points);
        EXPECT_EQ(coldHits, 0u);
        EXPECT_EQ(reply.at("cache_hits").asU64(), 0u);
        EXPECT_EQ(reply.at("computed").asU64(), points);
        ASSERT_EQ(records.size(), points);
        EXPECT_EQ(servedJson(records), direct);

        // Rerun: every point served from cache, same records.
        client.sendLine(run + "}");
        ASSERT_EQ(client.readReply().at("reply").asString(), "ack");
        std::uint64_t warmHits = 0;
        records.clear();
        for (;;) {
            reply = client.readReply();
            const std::string &kind = reply.at("reply").asString();
            if (kind == "point") {
                if (reply.at("cache_hit").asBool())
                    ++warmHits;
                SimResult r = parsePointRecord(reply.at("result"));
                records.emplace(r.workload, std::move(r));
            } else {
                ASSERT_EQ(kind, "done");
                EXPECT_EQ(reply.at("cache_hits").asU64(), points);
                EXPECT_EQ(reply.at("computed").asU64(), 0u);
                break;
            }
        }
        EXPECT_EQ(warmHits, points);
        ASSERT_EQ(records.size(), points);
        EXPECT_EQ(servedJson(records), direct);

        // Stats reflect all of the above.
        client.sendLine("{\"verb\":\"stats\"}");
        reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "stats");
        EXPECT_EQ(reply.at("jobs").asU64(), 4u);
        EXPECT_EQ(reply.at("computed").asU64(), points);
        EXPECT_EQ(reply.at("memory_hits").asU64(), points);
        EXPECT_EQ(reply.at("in_flight").asU64(), 0u);
    }

    server.requestStop();
    serving.join();
}

TEST(Protocol, EmptyIdIsEchoedVerbatim)
{
    TmpDir dir("emptyid");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 1;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        // EXPECT, not ASSERT: an early return would skip the server
        // shutdown below.
        client.sendLine("{\"verb\":\"ping\",\"id\":\"\"}");
        EXPECT_EQ(client.readLine().value_or(""),
                  "{\"reply\":\"pong\",\"id\":\"\","
                  "\"server\":\"drsim_serve\"}");

        client.sendLine("{\"verb\":\"frobnicate\",\"id\":\"\"}");
        EXPECT_EQ(client.readLine().value_or(""),
                  "{\"reply\":\"error\",\"id\":\"\","
                  "\"code\":\"unknown-verb\","
                  "\"message\":\"unknown verb 'frobnicate'\"}");

        // No id in the request: none in the reply.
        client.sendLine("{\"verb\":\"ping\"}");
        EXPECT_EQ(client.readReply().find("id"), nullptr);
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, ScaleOutsideIntRangeIsRefused)
{
    // A u64 scale is range-checked before it narrows to int, so
    // 2^32 + 1 is refused instead of wrapping to scale 1, and 2^31 is
    // refused with the range rather than as "below 1".
    TmpDir dir("scale");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 1;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        for (const char *scale : {"4294967297", "2147483648", "0"}) {
            client.sendLine("{\"verb\":\"run\",\"experiment\":"
                            "\"table1\",\"scale\":" +
                            std::string(scale) + "}");
            const json::Value reply = client.readReply();
            EXPECT_EQ(reply.at("reply").asString(), "error") << scale;
            EXPECT_EQ(reply.at("code").asString(), "bad-request")
                << scale;
            EXPECT_EQ(reply.at("message").asString(),
                      "scale must be in 1..2147483647")
                << scale;
        }
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, OutOfRangeIntegersAreRefused)
{
    // Like scale, every integer that narrows is range-checked first:
    // "regs":[4294967392] must not serve 96 registers, nor
    // "result_buses":4294967298 two buses.
    TmpDir dir("narrow");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 1;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        for (const char *axis :
             {"width", "dq", "regs", "result_buses", "mshrs",
              "write_buffer"}) {
            client.sendLine("{\"verb\":\"run\",\"spec\":{\"name\":"
                            "\"x\",\"axes\":{\"" +
                            std::string(axis) + "\":[4294967392]}}}");
            const json::Value reply = client.readReply();
            EXPECT_EQ(reply.at("reply").asString(), "error") << axis;
            EXPECT_EQ(reply.at("code").asString(), "bad-spec") << axis;
        }
        client.sendLine("{\"verb\":\"run\",\"experiment\":\"table1\","
                        "\"result_buses\":4294967298}");
        const json::Value reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "error");
        EXPECT_EQ(reply.at("code").asString(), "bad-request");
        EXPECT_EQ(reply.at("message").asString(),
                  "result_buses must be in 0..2147483647 "
                  "(0 = unlimited)");
    }
    server.requestStop();
    serving.join();
}

/** One served point: the spec it belongs to and its record. */
struct ServedPoint
{
    std::string spec;
    SimResult result;
};

/** Send the run @p request and collect its points, decoded by the
 *  client's streaming path; an error reply fails the test. */
std::vector<ServedPoint>
servePoints(ServeClient &client, const std::string &request)
{
    std::vector<ServedPoint> points;
    client.sendLine(request);
    for (;;) {
        std::optional<SimResult> record;
        const json::Value reply = client.readReply(record);
        const std::string &kind = reply.at("reply").asString();
        if (kind == "point") {
            EXPECT_TRUE(record.has_value());
            if (record.has_value())
                points.push_back({reply.at("spec").asString(),
                                  std::move(*record)});
        } else if (kind != "ack") {
            EXPECT_EQ(kind, "done") << json::serialize(reply);
            return points;
        }
    }
}

/** The daemon's stats counter @p key. */
std::uint64_t
statOf(ServeClient &client, const char *key)
{
    client.sendLine("{\"verb\":\"stats\"}");
    return client.readReply().at(key).asU64();
}

/** Every point of @p points equals an in-process simulate() of its
 *  spec's config (from @p specs) on its workload (from @p suite). */
void
expectPointsMatchDirect(const std::vector<ServedPoint> &points,
                        const std::vector<ExperimentSpec> &specs,
                        const std::vector<Workload> &suite)
{
    EXPECT_EQ(points.size(), specs.size() * suite.size());
    for (const ServedPoint &p : points) {
        const auto spec = std::find_if(
            specs.begin(), specs.end(),
            [&](const ExperimentSpec &s) { return s.name == p.spec; });
        const auto wl = std::find_if(
            suite.begin(), suite.end(), [&](const Workload &w) {
                return w.spec->name == p.result.workload;
            });
        ASSERT_NE(spec, specs.end()) << p.spec;
        ASSERT_NE(wl, suite.end()) << p.result.workload;
        EXPECT_EQ(pointRecordJson(p.result),
                  pointRecordJson(simulate(spec->config, *wl)))
            << p.spec << " x " << p.result.workload;
    }
}

TEST(Protocol, RepeatedRequestBuildsItsSuiteOnce)
{
    TmpDir dir("memo");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 2;
    opts.scale = 1;
    opts.maxCommitted = 2000;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        EXPECT_EQ(statOf(client, "suite_builds"), 0u);
        EXPECT_EQ(statOf(client, "suite_memo_entries"), 0u);

        const std::string run =
            "{\"verb\":\"run\",\"spec\":{\"name\":\"tiny\","
            "\"axes\":{\"width\":[4],\"regs\":[64]}}}";
        const std::vector<ServedPoint> first = servePoints(client, run);
        const std::vector<ServedPoint> again = servePoints(client, run);
        EXPECT_EQ(statOf(client, "suite_builds"), 1u);
        EXPECT_EQ(statOf(client, "suite_memo_hits"), 1u);
        EXPECT_EQ(statOf(client, "suite_memo_entries"), 1u);

        // Points stream in completion order; compare by workload.
        ASSERT_EQ(again.size(), first.size());
        std::map<std::string, std::string> records;
        for (const ServedPoint &p : first)
            records[p.result.workload] = pointRecordJson(p.result);
        for (const ServedPoint &p : again)
            EXPECT_EQ(pointRecordJson(p.result),
                      records.at(p.result.workload));

        // Two clients at once asking for a suite not built yet: one
        // builds it, the other waits for that build or finds it
        // resident.
        const std::string scale2 =
            "{\"verb\":\"run\",\"scale\":2,\"spec\":{\"name\":"
            "\"tiny\",\"axes\":{\"width\":[4],\"regs\":[64]}}}";
        std::vector<std::thread> clients;
        for (int c = 0; c < 2; ++c) {
            clients.emplace_back([&] {
                ServeClient other("127.0.0.1:" + std::to_string(port));
                EXPECT_EQ(servePoints(other, scale2).size(),
                          first.size());
            });
        }
        for (std::thread &t : clients)
            t.join();
        EXPECT_EQ(statOf(client, "suite_builds"), 2u);
        EXPECT_EQ(statOf(client, "suite_memo_hits"), 2u);
        EXPECT_EQ(statOf(client, "suite_memo_entries"), 2u);
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, WarmRequestIsNotHeldByDelayedAcks)
{
    // Regression test: the daemon writes ack, each point and done as
    // separate sends while the client only reads.  With Nagle's
    // algorithm on, every write after the first waited for the
    // client's delayed ACK (40 ms minimum on Linux), so a request
    // answered wholly from memory still took over 40 ms.
    TmpDir dir("nodelay");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 2;
    opts.scale = 1;
    opts.maxCommitted = 2000;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        const std::string run =
            "{\"verb\":\"run\",\"spec\":{\"name\":\"tiny\","
            "\"axes\":{\"width\":[4],\"regs\":[64]}}}";
        ASSERT_EQ(servePoints(client, run).size(), 9u);

        // The minimum of a few repeats: a loaded machine may slow
        // any one request, but only a timer slows every one.
        std::vector<double> times;
        std::string shown;
        for (int i = 0; i < 5; ++i) {
            const auto start = std::chrono::steady_clock::now();
            EXPECT_EQ(servePoints(client, run).size(), 9u);
            const std::chrono::duration<double, std::milli> ms =
                std::chrono::steady_clock::now() - start;
            times.push_back(ms.count());
            shown += ' ';
            shown += std::to_string(ms.count());
        }
        EXPECT_EQ(statOf(client, "computed"), 9u);
        EXPECT_EQ(statOf(client, "memory_hits"), 45u);
        EXPECT_LT(*std::min_element(times.begin(), times.end()), 20.0)
            << "warm request times (ms):" << shown;
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, SuiteMemoKeysOnScaleSuiteAndExperiment)
{
    // Requests that differ only in scale, in suite, or in experiment
    // must each get their own suite; an experiment on the default
    // suite shares the sweep-spec entry for spec92 at its scale.
    TmpDir dir("memokeys");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 2;
    opts.scale = 1;
    opts.maxCommitted = 2000;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        const std::string axes =
            "\"axes\":{\"width\":[4],\"regs\":[64]}";
        std::vector<ExperimentSpec> tiny =
            expandGrid(toGrid(parseSweepSpec("{\"name\":\"tiny\"," +
                                             axes + "}")));
        for (ExperimentSpec &s : tiny)
            s.config.maxCommitted = 2000;

        expectPointsMatchDirect(
            servePoints(client, "{\"verb\":\"run\",\"spec\":{"
                                "\"name\":\"tiny\"," + axes + "}}"),
            tiny, buildSpec92Suite(1));
        EXPECT_EQ(statOf(client, "suite_builds"), 1u);

        expectPointsMatchDirect(
            servePoints(client, "{\"verb\":\"run\",\"scale\":2,"
                                "\"spec\":{\"name\":\"tiny\"," +
                                    axes + "}}"),
            tiny, buildSpec92Suite(2));
        EXPECT_EQ(statOf(client, "suite_builds"), 2u);

        expectPointsMatchDirect(
            servePoints(client, "{\"verb\":\"run\",\"spec\":{"
                                "\"name\":\"tiny\",\"suite\":"
                                "\"classic\"," + axes + "}}"),
            tiny, classicWorkloads());
        EXPECT_EQ(statOf(client, "suite_builds"), 3u);

        RunContext ctx;
        ctx.scale = 1;
        ctx.maxCommitted = 2000;
        const ExperimentDef &fig8 = *findExperiment("fig8");
        expectPointsMatchDirect(
            servePoints(client,
                        "{\"verb\":\"run\",\"experiment\":\"fig8\"}"),
            expandExperiment(fig8, ctx), buildSuite(fig8, ctx));
        EXPECT_EQ(statOf(client, "suite_builds"), 4u);

        // table1 runs the default suite: the first request's entry.
        const ExperimentDef &table1 = *findExperiment("table1");
        expectPointsMatchDirect(
            servePoints(client,
                        "{\"verb\":\"run\",\"experiment\":\"table1\"}"),
            expandExperiment(table1, ctx), buildSuite(table1, ctx));
        EXPECT_EQ(statOf(client, "suite_builds"), 4u);
        EXPECT_EQ(statOf(client, "suite_memo_hits"), 1u);
        EXPECT_EQ(statOf(client, "suite_memo_entries"), 4u);
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, SamplingKeyValidatedAndApplied)
{
    TmpDir dir("sampling");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 2;
    opts.scale = 1;
    opts.maxCommitted = 4000;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });

    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        const std::string spec =
            "\"spec\":{\"name\":\"tiny\",\"axes\":{\"width\":[4],"
            "\"regs\":[64]}}";

        // Not an object.
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":5}");
        json::Value reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "error");
        EXPECT_EQ(reply.at("code").asString(), "bad-request");

        // Unknown key inside the sampling object.
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":600,"
                        "\"window\":100,\"warmup\":100,\"x\":1}}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");

        // Infeasible: interval must exceed warmup + window.  The
        // refusal names the config table's rule.
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":200,"
                        "\"window\":100,\"warmup\":100}}");
        reply = client.readReply();
        EXPECT_EQ(reply.at("code").asString(), "bad-request");
        EXPECT_NE(reply.at("message").asString().find(
                      "[sampling-no-fast-forward]"),
                  std::string::npos)
            << reply.at("message").asString();
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":1000,"
                        "\"window\":0,\"warmup\":100}}");
        reply = client.readReply();
        EXPECT_EQ(reply.at("code").asString(), "bad-request");
        EXPECT_NE(reply.at("message").asString().find(
                      "[sampling-zero-window]"),
                  std::string::npos)
            << reply.at("message").asString();

        // Interval 0 is not a sampling request at all.
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":0,"
                        "\"window\":100,\"warmup\":100}}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");

        // Missing field.
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":600}}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");

        // Every window warms its whole gap: warmff may only be 0.
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":600,"
                        "\"window\":100,\"warmup\":100,"
                        "\"warmff\":200}}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");

        // A valid sampled run, on the connection that saw every
        // refusal: every point record carries the sampled block.
        client.sendLine("{\"verb\":\"run\",\"id\":\"s1\"," + spec +
                        ",\"sampling\":{\"interval\":600,"
                        "\"window\":100,\"warmup\":100,"
                        "\"warmff\":0}}");
        reply = client.readReply();
        ASSERT_EQ(reply.at("reply").asString(), "ack");
        const std::uint64_t points = reply.at("points").asU64();
        std::uint64_t sampledPoints = 0;
        for (;;) {
            reply = client.readReply();
            if (reply.at("reply").asString() == "done")
                break;
            ASSERT_EQ(reply.at("reply").asString(), "point");
            const SimResult r = parsePointRecord(reply.at("result"));
            if (r.sampled.enabled)
                ++sampledPoints;
        }
        EXPECT_EQ(sampledPoints, points);

        // The identical request *without* sampling must not reuse
        // the sampled cache entries: all points recompute, and the
        // records are full-detail.
        client.sendLine("{\"verb\":\"run\",\"id\":\"s2\"," + spec +
                        "}");
        reply = client.readReply();
        ASSERT_EQ(reply.at("reply").asString(), "ack");
        std::uint64_t cacheHits = 0, fullPoints = 0;
        for (;;) {
            reply = client.readReply();
            if (reply.at("reply").asString() == "done")
                break;
            if (reply.at("cache_hit").asBool())
                ++cacheHits;
            const SimResult r = parsePointRecord(reply.at("result"));
            if (!r.sampled.enabled)
                ++fullPoints;
        }
        EXPECT_EQ(cacheHits, 0u);
        EXPECT_EQ(fullPoints, points);
    }

    server.requestStop();
    serving.join();
}

TEST(Protocol, StatsReportsCheckpointLibraryCounters)
{
    TmpDir dir("ckptstats");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 2;
    opts.scale = 1;
    opts.maxCommitted = 4000;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });

    {
        ServeClient client("127.0.0.1:" + std::to_string(port));

        client.sendLine("{\"verb\":\"stats\"}");
        json::Value before = client.readReply();
        ASSERT_EQ(before.at("reply").asString(), "stats");
        const std::uint64_t gen0 =
            before.at("ckpt_generated").asU64();
        const std::uint64_t hits0 =
            before.at("ckpt_memory_hits").asU64();

        // A sampled sweep with two register points per workload
        // exercises the library: every computed point acquires its
        // workload's plan, and at most the first acquisition of each
        // plan generates it.
        client.sendLine(
            "{\"verb\":\"run\",\"spec\":{\"name\":\"tiny\","
            "\"axes\":{\"width\":[4],\"regs\":[64,80]}},"
            "\"sampling\":{\"interval\":600,\"window\":100,"
            "\"warmup\":100}}");
        json::Value reply = client.readReply();
        ASSERT_EQ(reply.at("reply").asString(), "ack");
        for (;;) {
            reply = client.readReply();
            if (reply.at("reply").asString() == "done")
                break;
        }
        const std::uint64_t computed = reply.at("computed").asU64();
        EXPECT_GT(computed, 0u);

        client.sendLine("{\"verb\":\"stats\"}");
        json::Value after = client.readReply();
        ASSERT_EQ(after.at("reply").asString(), "stats");
        // The library is process-wide, so an earlier test in this
        // process may already have generated these plans: count
        // acquisitions (generated or served from memory), not
        // generations.
        const std::uint64_t gen = after.at("ckpt_generated").asU64();
        const std::uint64_t hits = after.at("ckpt_memory_hits").asU64();
        EXPECT_GE((gen + hits) - (gen0 + hits0), computed);
        EXPECT_GT(hits, hits0);
        EXPECT_NO_THROW(after.at("ckpt_coalesced").asU64());
        // The library is memory-only: no disk-tier counters.
        for (const char *key :
             {"ckpt_hits", "ckpt_misses", "ckpt_corrupt",
              "ckpt_stores", "ckpt_evicted"}) {
            EXPECT_EQ(after.find(key), nullptr) << key;
        }
    }

    server.requestStop();
    serving.join();
}

TEST(Protocol, RecvEintrRetriesInsteadOfDisconnecting)
{
    // Regression test: a signal delivered to a connection thread
    // parked in recv() used to be treated as a disconnect (recv
    // returns -1/EINTR, and the old loop broke on any n <= 0).
    // Install a no-op handler *without* SA_RESTART so the syscall
    // genuinely returns EINTR rather than restarting transparently.
    struct sigaction sa = {};
    sa.sa_handler = +[](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    struct sigaction old = {};
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    TmpDir dir("eintr");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 1;
    opts.scale = 1;
    opts.maxCommitted = 500;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });

    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        client.sendLine("{\"verb\":\"ping\",\"id\":\"before\"}");
        EXPECT_EQ(client.readReply().at("reply").asString(), "pong");

        // The connection thread is now parked in recv(); interrupt
        // it repeatedly, then prove the connection survived.
        for (int i = 0; i < 5; ++i) {
            server.interruptConnectionsForTest(SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        client.sendLine("{\"verb\":\"ping\",\"id\":\"after\"}");
        const json::Value reply = client.readReply();
        EXPECT_EQ(reply.at("reply").asString(), "pong");
        EXPECT_EQ(reply.at("id").asString(), "after");
    }

    server.requestStop();
    serving.join();
    ::sigaction(SIGUSR1, &old, nullptr);
}

TEST(Protocol, IntegersThatWrapAreRefused)
{
    // A "max_committed" of 2^64 - 1 parses as the double 2^64, which
    // once cast to 0 ("run to halt"); a sampling warmup + window that
    // wraps below the interval once passed the feasibility check.
    // Both are bad requests.
    TmpDir dir("wrap");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 1;
    opts.scale = 1;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        ServeClient client("127.0.0.1:" + std::to_string(port));
        const std::string spec =
            "\"spec\":{\"name\":\"x\",\"axes\":{\"width\":[4]}}";
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"max_committed\":18446744073709551615}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");
        client.sendLine("{\"verb\":\"run\"," + spec +
                        ",\"sampling\":{\"interval\":10000,"
                        "\"window\":18446744073709549568,"
                        "\"warmup\":4096}}");
        EXPECT_EQ(client.readReply().at("code").asString(),
                  "bad-request");
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, ClientRefusesAJunkPort)
{
    // The whole port must be decimal: "1x" is not port 1.
    for (const char *hostPort :
         {"127.0.0.1:1x", "127.0.0.1:+1", "127.0.0.1:65536"}) {
        try {
            ServeClient client(hostPort);
            ADD_FAILURE() << hostPort << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("bad port"),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Write all of @p bytes to @p fd in sends of at most @p piece. */
void
sendPieces(int fd, const std::string &bytes, std::size_t piece)
{
    for (std::size_t at = 0; at < bytes.size();) {
        const ssize_t n =
            ::send(fd, bytes.data() + at,
                   std::min(piece, bytes.size() - at), MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        at += std::size_t(n);
    }
}

/** @p prefix and 1 MiB of letters, varied so that a line framed
 *  from the wrong bytes differs from it. */
std::string
longText(const char *prefix)
{
    std::string id(std::size_t(1) << 20, 'x');
    for (std::size_t i = 0; i < id.size(); i += 4099)
        id[i] = char('a' + i % 26);
    return prefix + id;
}

TEST(Protocol, ClientFramesLongAndBatchedLines)
{
    // A raw loopback peer plays the daemon.
    const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listenFd, 1), 0);
    ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);

    const std::string longLine = longText("long:");
    std::thread peer([&] {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        sendPieces(fd, longLine + "\n", 65536);
        sendPieces(fd, "first\nsecond\n", 65536);
        ::close(fd);
    });
    {
        ServeClient client("127.0.0.1:" +
                           std::to_string(ntohs(addr.sin_port)));
        const std::optional<std::string> line = client.readLine();
        EXPECT_TRUE(line.has_value() && *line == longLine)
            << (line ? line->size() : 0) << " bytes, want "
            << longLine.size();
        EXPECT_EQ(client.readLine(), std::optional<std::string>("first"));
        EXPECT_EQ(client.readLine(), std::optional<std::string>("second"));
        EXPECT_EQ(client.readLine(), std::nullopt);
    }
    peer.join();
    ::close(listenFd);
}

/** Connect to the daemon on @p port, write the pieces of each of
 *  @p writes as sendPieces() does, and read @p replies reply lines. */
std::vector<json::Value>
rawExchange(int port, const std::vector<std::string> &writes,
            std::size_t replies)
{
    std::vector<json::Value> out;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    // A misframed request fails the test instead of hanging it.
    const timeval timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ADD_FAILURE() << "connect: " << std::strerror(errno);
        ::close(fd);
        return out;
    }
    for (const std::string &bytes : writes)
        sendPieces(fd, bytes, 65536);
    std::string received;
    while (out.size() < replies) {
        char chunk[65536];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            ADD_FAILURE() << "connection ended after " << out.size()
                          << " replies";
            break;
        }
        received.append(chunk, std::size_t(n));
        for (std::size_t nl;
             (nl = received.find('\n')) != std::string::npos;) {
            out.push_back(json::parse(received.substr(0, nl)));
            received.erase(0, nl + 1);
        }
    }
    ::close(fd);
    return out;
}

TEST(Protocol, ServerFramesLongAndBatchedLines)
{
    TmpDir dir("framing");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 1;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        // A raw loopback peer plays the client: a request line over
        // 1 MiB in 64 KiB pieces, then three lines in one write.
        const std::string longId = longText("long:");
        const std::vector<json::Value> replies = rawExchange(
            port,
            {"{\"verb\":\"ping\",\"id\":\"" + longId + "\"}\n",
             "{\"verb\":\"ping\",\"id\":\"first\"}\n"
             "{\"verb\":\"ping\",\"id\":\"second\"}\n"
             "{\"verb\":\"stats\"}\n"},
            4);
        EXPECT_EQ(replies.size(), 4u);
        if (replies.size() == 4) {
            EXPECT_TRUE(replies[0].at("id").asString() == longId);
            EXPECT_EQ(replies[1].at("id").asString(), "first");
            EXPECT_EQ(replies[2].at("id").asString(), "second");
            // Each request was handled once: three pings, then stats.
            EXPECT_EQ(replies[3].at("reply").asString(), "stats");
            EXPECT_EQ(replies[3].at("requests").asU64(), 4u);
            EXPECT_EQ(replies[3].at("request_errors").asU64(), 0u);
        }
    }
    server.requestStop();
    serving.join();
}

TEST(Protocol, ServedSampledSpecMatchesLocalRun)
{
    // A spec served through the client's point runner takes the run
    // options exactly as the local driver does: the sampled artifact
    // is byte-equal to runExperiments() over the same expansion.
    TmpDir dir("sampledspec");
    ServerOptions opts;
    opts.port = 0;
    opts.cacheDir = dir.str();
    opts.jobs = 2;
    Server server(std::move(opts));
    const int port = server.start();
    std::thread serving([&server] { server.serve(); });
    {
        RunContext ctx;
        ctx.scale = 1;
        ctx.maxCommitted = 6000;
        ctx.sampling = parseSamplingSpec("600:100:100");
        const SweepSpec spec = parseSweepSpec(
            R"({"name": "tiny", "axes": {"width": [4], "regs": [64, 80]}})");
        const ExperimentDef def = specExperiment(spec);
        const std::vector<ExperimentSpec> specs =
            expandExperiment(def, ctx);
        const std::vector<Workload> suite = buildSuite(def, ctx);
        const RunInfo info{def.name, ctx.scale, ctx.maxCommitted};
        const std::string served = resultsJson(
            info, servedPoints("127.0.0.1:" + std::to_string(port), ctx,
                               def, &spec)(specs, suite));
        EXPECT_EQ(served,
                  resultsJson(info, runExperiments(specs, suite, 2)));
        EXPECT_NE(served.find("\"ipc_estimate\""), std::string::npos);
    }
    server.requestStop();
    serving.join();
}

} // namespace
