/**
 * @file
 * Tests of the shared content-addressed store (common/content_store):
 * atomic publish, rejection of entries a decoder refuses, the LRU byte
 * cap, and the memory tier's coalescing and error semantics.  The
 * point cache, the checkpoint library and the sweep service are tested
 * through the store in test_serve.cc and test_ckpt_store.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/content_store.hh"
#include "common/logging.hh"

namespace drsim {
namespace {

namespace fs = std::filesystem;

/** Self-deleting scratch directory. */
class TmpDir
{
  public:
    explicit TmpDir(const char *tag)
    {
        path_ = fs::temp_directory_path() /
                ("drsim_store_test_" + std::string(tag) + "_" +
                 std::to_string(::getpid()));
        fs::remove_all(path_);
    }
    ~TmpDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** A decoder that accepts anything and keeps the bytes. */
ContentStore::Decoder
keep(std::string &out)
{
    return [&out](const std::string &bytes) {
        out = bytes;
        return std::string();
    };
}

TEST(ContentStore, PublishLeavesNoTempFiles)
{
    TmpDir dir("publish");
    ContentStore store(dir.str(), 0, "test");
    for (int i = 0; i < 20; ++i) {
        const std::string hash = "ab" + std::to_string(1000 + i);
        ASSERT_TRUE(store.publish(hash, ".json", "entry " + hash));
        ASSERT_TRUE(store.publish(hash, ".p7.bin", "snapshot"));
    }
    EXPECT_EQ(store.path("ab1000", ".json"), dir.str() + "/ab/ab1000.json");
    EXPECT_EQ(readFile(store.path("ab1003", ".json")), "entry ab1003");

    std::size_t files = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir.str())) {
        if (!e.is_regular_file())
            continue;
        ++files;
        EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
            << e.path();
    }
    EXPECT_EQ(files, 40u);
    EXPECT_EQ(store.stats().stores, 40u);

    std::string got;
    EXPECT_TRUE(store.load("ab1007", ".json", keep(got)));
    EXPECT_EQ(got, "entry ab1007");
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST(ContentStore, RejectedEntryIsUnlinkedCountedAndMissed)
{
    TmpDir dir("reject");
    ContentStore store(dir.str(), 0, "test");
    ASSERT_TRUE(store.publish("cd01", ".json", "garbage"));
    ASSERT_TRUE(store.publish("cd02", ".json", "also garbage"));

    // A decoder that names a reason...
    EXPECT_FALSE(store.load("cd01", ".json", [](const std::string &) {
        return std::string("not a v1 envelope");
    }));
    EXPECT_FALSE(fs::exists(store.path("cd01", ".json")));
    // ...and one that throws FatalError are both misses, not crashes.
    EXPECT_FALSE(store.load("cd02", ".json", [](const std::string &) {
        fatal("unparsable");
        return std::string();
    }));
    EXPECT_FALSE(fs::exists(store.path("cd02", ".json")));
    // An absent entry is a plain miss.
    std::string got;
    EXPECT_FALSE(store.load("cd03", ".json", keep(got)));

    const ContentStore::Stats s = store.stats();
    EXPECT_EQ(s.corrupt, 2u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.hits, 0u);

    // The slot is usable again.
    ASSERT_TRUE(store.publish("cd01", ".json", "good"));
    EXPECT_TRUE(store.load("cd01", ".json", keep(got)));
    EXPECT_EQ(got, "good");
}

TEST(ContentStore, ByteCapEvictsLeastRecentlyTouchedFirst)
{
    TmpDir dir("cap");
    const std::string bytes(100, 'x');
    ContentStore store(dir.str(), 300, "test");
    const auto now = fs::file_time_type::clock::now();
    int age = 3;
    for (const char *hash : {"aa01", "bb02", "cc03"}) {
        ASSERT_TRUE(store.publish(hash, ".json", bytes));
        fs::last_write_time(store.path(hash, ".json"),
                            now - std::chrono::seconds(age--));
    }
    store.trim();
    EXPECT_EQ(store.stats().evicted, 0u); // exactly at the cap

    // Loading the oldest entry makes it the most recently used, so
    // the next publish evicts the second-oldest instead.
    std::string got;
    ASSERT_TRUE(store.load("aa01", ".json", keep(got)));
    ASSERT_TRUE(store.publish("dd04", ".json", bytes));
    store.trim();
    EXPECT_EQ(store.stats().evicted, 1u);
    EXPECT_TRUE(fs::exists(store.path("aa01", ".json")));
    EXPECT_FALSE(fs::exists(store.path("bb02", ".json")));
    EXPECT_TRUE(fs::exists(store.path("cc03", ".json")));
    EXPECT_TRUE(fs::exists(store.path("dd04", ".json")));
}

TEST(ContentStore, DisabledDiskTierMissesAndStoresNothing)
{
    ContentStore store("", 0, "test");
    EXPECT_FALSE(store.enabled());
    EXPECT_EQ(store.path("ab01", ".json"), "");
    EXPECT_FALSE(store.publish("ab01", ".json", "x"));
    std::string got;
    EXPECT_FALSE(store.load("ab01", ".json", keep(got)));
    EXPECT_EQ(store.stats().stores, 0u);
}

using IntTier = MemoryTier<int>;

/**
 * Run get(@p key) on @p n threads, with @p compute gated until every
 * other thread is queued behind the owner, so the coalescing is
 * deterministic.  Returns each thread's value (nullptr on error) and
 * counts the errors.
 */
template <class Compute>
std::vector<IntTier::Value>
getOnThreads(IntTier &tier, std::size_t n, Compute compute,
             std::size_t &errors)
{
    std::vector<IntTier::Value> got(n);
    std::atomic<std::size_t> failed{0};
    const auto gated = [&]() -> IntTier::Value {
        while (tier.stats().coalesced < n - 1)
            std::this_thread::yield();
        return compute();
    };
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                got[i] = tier.get("key", gated);
            } catch (const std::runtime_error &) {
                ++failed;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    errors = failed;
    return got;
}

TEST(ContentStore, ConcurrentRequestsForOneKeyRunOneCompute)
{
    IntTier tier;
    std::atomic<int> computes{0};
    std::size_t errors = 0;
    const std::vector<IntTier::Value> got = getOnThreads(
        tier, 8,
        [&] {
            ++computes;
            return std::make_shared<const int>(42);
        },
        errors);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(errors, 0u);
    for (const IntTier::Value &v : got) {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v, got.front()); // one shared value
    }
    EXPECT_EQ(tier.stats().coalesced, 7u);
    EXPECT_EQ(tier.stats().inFlight, 0u);

    // Resident now: a later request is a memory hit.
    IntTier::Via via = IntTier::Via::Owner;
    EXPECT_EQ(*tier.get("key", [&] {
        ++computes;
        return std::make_shared<const int>(0);
    }, &via), 42);
    EXPECT_EQ(via, IntTier::Via::Memory);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(tier.stats().hits, 1u);
}

TEST(ContentStore, ComputeErrorReachesEveryWaiterAndIsNotKept)
{
    IntTier tier;
    std::atomic<int> computes{0};
    std::size_t errors = 0;
    getOnThreads(
        tier, 6,
        [&]() -> IntTier::Value {
            ++computes;
            throw std::runtime_error("transient");
        },
        errors);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(errors, 6u);
    EXPECT_EQ(tier.stats().inFlight, 0u);

    // The error was not kept: the next request computes again.
    IntTier::Via via = IntTier::Via::Memory;
    const IntTier::Value v = tier.get("key", [&] {
        ++computes;
        return std::make_shared<const int>(7);
    }, &via);
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(via, IntTier::Via::Owner);
    EXPECT_EQ(computes, 2);
}

TEST(ContentStore, AsyncRequestQueuesUntilFinish)
{
    IntTier tier;
    std::vector<IntTier::Via> seen;
    const auto record = [&seen](const IntTier::Value &value,
                                const std::exception_ptr &error,
                                IntTier::Via via) {
        EXPECT_EQ(error, nullptr);
        EXPECT_EQ(*value, 5);
        seen.push_back(via);
    };
    EXPECT_EQ(tier.request("k", record), IntTier::Via::Owner);
    EXPECT_EQ(tier.request("k", record), IntTier::Via::Coalesced);
    EXPECT_TRUE(seen.empty()); // nothing delivered before finish()
    tier.finish("k", std::make_shared<const int>(5), nullptr);
    EXPECT_EQ(tier.request("k", record), IntTier::Via::Memory);
    EXPECT_EQ(seen, (std::vector<IntTier::Via>{IntTier::Via::Owner,
                                               IntTier::Via::Coalesced,
                                               IntTier::Via::Memory}));
}

TEST(ContentStore, BoundedTierEvictsTheLeastRecentlyUsed)
{
    IntTier tier(2);
    const auto value = [](int v) {
        return [v] { return std::make_shared<const int>(v); };
    };
    tier.get("a", value(1));
    tier.get("b", value(2));
    tier.get("a", value(0)); // a hit: "b" is now the least recent
    tier.get("c", value(3)); // evicts "b"
    EXPECT_EQ(tier.stats().resident, 2u);
    EXPECT_EQ(tier.stats().evicted, 1u);

    IntTier::Via via = IntTier::Via::Owner;
    EXPECT_EQ(*tier.get("a", value(0), &via), 1);
    EXPECT_EQ(via, IntTier::Via::Memory);
    EXPECT_EQ(*tier.get("c", value(0), &via), 3);
    EXPECT_EQ(via, IntTier::Via::Memory);
    EXPECT_EQ(*tier.get("b", value(4), &via), 4); // recomputed
    EXPECT_EQ(via, IntTier::Via::Owner);
    EXPECT_EQ(tier.stats().owned, 4u);
    EXPECT_EQ(tier.stats().resident, 2u);
    EXPECT_EQ(tier.stats().evicted, 2u);
}

} // namespace
} // namespace drsim
