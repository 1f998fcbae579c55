/**
 * @file
 * Unit tests for the data-cache organizations (perfect, lockup,
 * lockup-free) and the instruction cache.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memory/cache.hh"

namespace drsim {
namespace {

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.sizeBytes = 1024; // 16 sets x 2 ways x 32 B
    c.assoc = 2;
    c.lineBytes = 32;
    c.hitLatency = 1;
    c.missPenalty = 16;
    return c;
}

TEST(CacheConfig, Validation)
{
    CacheConfig c = smallConfig();
    EXPECT_NO_THROW(c.validate());
    c.lineBytes = 33;
    EXPECT_THROW(c.validate(), FatalError);
    c = smallConfig();
    c.assoc = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = smallConfig();
    c.sizeBytes = 1000;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(PerfectCache, AlwaysHits)
{
    DataCache cache(CacheKind::Perfect, smallConfig());
    for (Addr a = 0; a < 100 * 4096; a += 4096) {
        const LoadResult r = cache.load(a, 10, a);
        EXPECT_TRUE(r.hit);
        EXPECT_EQ(r.readyCycle, 10u + cache.hitUseLatency());
    }
    EXPECT_EQ(cache.stats().loadMisses, 0u);
}

TEST(LockupFree, MissThenHitTiming)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    // First access misses: ready = now + hit + penalty + 1.
    const LoadResult m = cache.load(0x100, 100, 1);
    EXPECT_FALSE(m.hit);
    EXPECT_EQ(m.readyCycle, 100u + 1 + 16 + 1);
    EXPECT_GE(m.fetchId, 0);

    // Same line after the fill: a plain hit.
    const LoadResult h = cache.load(0x108, 200, 2);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.readyCycle, 200u + cache.hitUseLatency());
    EXPECT_EQ(cache.stats().loadMisses, 1u);
}

TEST(LockupFree, SameLineMissesMerge)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    const LoadResult m = cache.load(0x100, 100, 1);
    const LoadResult merged = cache.load(0x110, 105, 2);
    EXPECT_FALSE(merged.hit);
    EXPECT_TRUE(merged.merged);
    EXPECT_EQ(merged.fetchId, m.fetchId);
    // The merged load completes when the fill does.
    EXPECT_EQ(merged.readyCycle, m.readyCycle);
    EXPECT_EQ(cache.stats().loadMisses, 1u);
    EXPECT_EQ(cache.stats().loadMerges, 1u);
}

TEST(LockupFree, ManyOutstandingMisses)
{
    // Inverted MSHR: an unbounded number of distinct-line misses may
    // be outstanding simultaneously.
    DataCache cache(CacheKind::LockupFree, smallConfig());
    for (int i = 0; i < 64; ++i) {
        EXPECT_TRUE(cache.loadCanIssue(100));
        const LoadResult r =
            cache.load(Addr(i) * 4096, 100, InstUid(i));
        EXPECT_FALSE(r.hit);
    }
    EXPECT_EQ(cache.stats().loadMisses, 64u);
}

TEST(Lockup, BlocksDuringMiss)
{
    DataCache cache(CacheKind::Lockup, smallConfig());
    const LoadResult m = cache.load(0x100, 100, 1);
    EXPECT_FALSE(m.hit);
    // Blocked until the fill completes at now + 1 + 16.
    EXPECT_FALSE(cache.loadCanIssue(101));
    EXPECT_FALSE(cache.loadCanIssue(116));
    EXPECT_TRUE(cache.loadCanIssue(117));
    // And then the line hits.
    const LoadResult h = cache.load(0x100, 117, 2);
    EXPECT_TRUE(h.hit);
}

TEST(Lockup, HitsDoNotBlock)
{
    DataCache cache(CacheKind::Lockup, smallConfig());
    cache.load(0x100, 100, 1);            // miss; fill at 117
    const LoadResult h = cache.load(0x100, 200, 2);
    EXPECT_TRUE(h.hit);
    EXPECT_TRUE(cache.loadCanIssue(201)); // hits never block
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // Three lines mapping to the same set of a 2-way cache.
    const CacheConfig cfg = smallConfig(); // 16 sets
    DataCache cache(CacheKind::LockupFree, cfg);
    const Addr a = 0;
    const Addr b = 16 * 32;     // same set, next tag
    const Addr c = 2 * 16 * 32; // same set, next tag

    cache.load(a, 100, 1); // miss
    cache.load(b, 200, 2); // miss -> set full
    cache.load(a, 300, 3); // hit, touches a
    cache.load(c, 400, 4); // miss, evicts b (LRU)
    EXPECT_TRUE(cache.load(a, 500, 5).hit);
    EXPECT_FALSE(cache.load(b, 600, 6).hit); // b was evicted
    EXPECT_EQ(cache.stats().loadMisses, 4u);
}

TEST(Cache, StoresWriteAroundWithoutAllocating)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    cache.storeCommit(0x100, 100);
    // The store must not have allocated the line.
    EXPECT_FALSE(cache.load(0x100, 200, 1).hit);
    EXPECT_EQ(cache.stats().storesBuffered, 1u);
    EXPECT_EQ(cache.stats().storeHits, 0u);
    // After the line is resident, a store hit updates it.
    cache.storeCommit(0x100, 300);
    EXPECT_EQ(cache.stats().storeHits, 1u);
}

TEST(Cache, StoreHitRefreshesLru)
{
    const CacheConfig cfg = smallConfig();
    DataCache cache(CacheKind::LockupFree, cfg);
    const Addr a = 0;
    const Addr b = 16 * 32;
    const Addr c = 2 * 16 * 32;
    cache.load(a, 100, 1);
    cache.load(b, 200, 2);
    cache.storeCommit(a, 300);  // store hit keeps a young
    cache.load(c, 400, 3);      // evicts b
    EXPECT_TRUE(cache.load(a, 500, 4).hit);
}

TEST(LockupFree, SquashedSoloFetchIsCancelled)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    const LoadResult m = cache.load(0x100, 100, 1);
    cache.squashLoad(m.fetchId, 1, 105); // before fill completes
    EXPECT_EQ(cache.stats().fetchesCancelled, 1u);
    // The block was not written into the cache.
    EXPECT_FALSE(cache.load(0x100, 300, 2).hit);
}

TEST(LockupFree, SurvivingMergeKeepsFetchAlive)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    const LoadResult m = cache.load(0x100, 100, 1);
    const LoadResult merged = cache.load(0x108, 101, 2);
    ASSERT_TRUE(merged.merged);
    // The initiating load is squashed, but a correct-path load still
    // waits on the fill: the fetch continues and the block is written.
    cache.squashLoad(m.fetchId, 1, 102);
    EXPECT_EQ(cache.stats().fetchesCancelled, 0u);
    EXPECT_TRUE(cache.load(0x100, 300, 3).hit);
}

TEST(LockupFree, SquashAfterFillKeepsBlock)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    const LoadResult m = cache.load(0x100, 100, 1);
    // The fill completed long ago; squashing must not invalidate.
    cache.squashLoad(m.fetchId, 1, 500);
    EXPECT_TRUE(cache.load(0x100, 600, 2).hit);
}

TEST(Lockup, SquashUnblocksCache)
{
    DataCache cache(CacheKind::Lockup, smallConfig());
    const LoadResult m = cache.load(0x100, 100, 1);
    EXPECT_FALSE(cache.loadCanIssue(105));
    cache.squashLoad(m.fetchId, 1, 105);
    EXPECT_TRUE(cache.loadCanIssue(106));
}

TEST(LockupFree, InFlightLineNotEvicted)
{
    // Two in-flight fills occupy both ways of a set; a third miss to
    // the same set must not evict either (it fetches without
    // allocating), and both earlier fills must still complete.
    const CacheConfig cfg = smallConfig();
    DataCache cache(CacheKind::LockupFree, cfg);
    const Addr a = 0;
    const Addr b = 16 * 32;
    const Addr c = 2 * 16 * 32;
    cache.load(a, 100, 1);
    cache.load(b, 100, 2);
    const LoadResult r3 = cache.load(c, 101, 3);
    EXPECT_FALSE(r3.hit);
    EXPECT_GE(r3.readyCycle, 101u + 17);
    // After all fills: a and b are resident, c was not allocated.
    EXPECT_TRUE(cache.load(a, 300, 4).hit);
    EXPECT_TRUE(cache.load(b, 301, 5).hit);
    EXPECT_FALSE(cache.load(c, 302, 6).hit);
}

TEST(Cache, MissRateAccounting)
{
    DataCache cache(CacheKind::LockupFree, smallConfig());
    cache.load(0x100, 100, 1);  // primary miss
    cache.load(0x110, 101, 2);  // merge (secondary miss)
    cache.load(0x100, 300, 3);  // hit
    cache.load(0x100, 301, 4);  // hit
    // The paper-style rate counts only primary misses.
    EXPECT_DOUBLE_EQ(cache.stats().loadMissRate(), 0.25);
    EXPECT_EQ(cache.stats().loadMerges, 1u);
}

TEST(ICache, HitAndMissTiming)
{
    InstCache icache(smallConfig());
    EXPECT_EQ(icache.fetch(0x1000, 50), 50u + 16); // cold miss
    EXPECT_EQ(icache.fetch(0x1004, 70), 70u);      // same line: hit
    EXPECT_EQ(icache.misses(), 1u);
    EXPECT_EQ(icache.accesses(), 2u);
}

TEST(ICache, SmallLoopStaysResident)
{
    InstCache icache(smallConfig());
    // Touch a 4-line loop repeatedly: only 4 cold misses.
    for (int rep = 0; rep < 100; ++rep)
        for (Addr line = 0; line < 4; ++line)
            icache.fetch(0x1000 + line * 32, 1000 + rep);
    EXPECT_EQ(icache.misses(), 4u);
}

TEST(Cache, WarmStateRestoresTagsAndRecency)
{
    const CacheConfig cfg = smallConfig(); // 16 sets
    const Addr a = 0;
    const Addr b = 16 * 32;     // same set, next tag
    const Addr c = 2 * 16 * 32; // same set, next tag
    DataCache warmed(CacheKind::LockupFree, cfg);
    warmed.warmLoad(a);
    warmed.warmLoad(b);
    warmed.warmStore(a); // a becomes the most recent
    warmed.warmLoad(64); // another set
    const CacheWarmState state = warmed.warmState();
    ASSERT_EQ(state.size(), 3u);

    DataCache restored(CacheKind::LockupFree, cfg);
    restored.restoreWarmState(state);
    EXPECT_EQ(restored.warmState(), state);
    // Both caches now make the same decisions: c evicts b, the
    // least recently warmed line of the set, and a stays.
    for (DataCache *cache : {&warmed, &restored}) {
        EXPECT_FALSE(cache->load(c, 10, 1).hit);
        EXPECT_TRUE(cache->load(a, 40, 2).hit);
        EXPECT_FALSE(cache->load(b, 50, 3).hit);
        EXPECT_TRUE(cache->load(64, 90, 4).hit);
    }
    EXPECT_EQ(restored.stats().loadMisses, warmed.stats().loadMisses);

    // A perfect cache keeps no tags: its warm state is empty.
    DataCache perfect(CacheKind::Perfect, cfg);
    perfect.warmLoad(a);
    EXPECT_TRUE(perfect.warmState().empty());
}

TEST(ICache, WarmStateRoundTrips)
{
    InstCache warmed(smallConfig());
    for (Addr line = 0; line < 4; ++line)
        warmed.warmFetch(0x1000 + line * 32);
    warmed.warmFetch(0x1000);
    InstCache restored(smallConfig());
    restored.restoreWarmState(warmed.warmState());
    EXPECT_EQ(restored.warmState(), warmed.warmState());
    for (Addr line = 0; line < 4; ++line)
        EXPECT_EQ(restored.fetch(0x1000 + line * 32, 100), 100u);
    EXPECT_EQ(restored.misses(), 0u);
}

TEST(Cache, WarmStateIsAPureRead)
{
    // Capturing mid-warm must not disturb the warming that follows:
    // warm A, capture, warm B, capture equals warm A then B, capture.
    const CacheConfig cfg = smallConfig(); // 16 sets, 2-way
    const auto warm_a = [](DataCache &c) {
        c.warmLoad(0);
        c.warmLoad(16 * 32);
        c.warmLoad(64);
    };
    const auto warm_b = [](DataCache &c) {
        c.warmStore(0);
        c.warmLoad(2 * 16 * 32); // evicts 16 * 32, not 0
        c.warmLoad(64 + 16 * 32);
    };
    DataCache captured(CacheKind::LockupFree, cfg);
    warm_a(captured);
    const CacheWarmState mid = captured.warmState();
    EXPECT_EQ(mid.size(), 3u);
    warm_b(captured);
    DataCache once(CacheKind::LockupFree, cfg);
    warm_a(once);
    warm_b(once);
    EXPECT_EQ(captured.warmState(), once.warmState());
    EXPECT_NE(once.warmState(), mid);
}

TEST(ICache, WarmStateIsAPureRead)
{
    const auto warm_a = [](InstCache &c) {
        c.warmFetch(0x1000);
        c.warmFetch(0x1000 + 16 * 32); // same set as 0x1000
        c.warmFetch(0x1020);
    };
    const auto warm_b = [](InstCache &c) {
        c.warmFetch(0x1000);
        c.warmFetch(0x1000 + 2 * 16 * 32); // evicts 0x1000 + 16 * 32
    };
    InstCache captured(smallConfig());
    warm_a(captured);
    const CacheWarmState mid = captured.warmState();
    warm_b(captured);
    InstCache once(smallConfig());
    warm_a(once);
    warm_b(once);
    EXPECT_EQ(captured.warmState(), once.warmState());
    EXPECT_NE(once.warmState(), mid);
}

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(CacheGeometryTest, FillsToCapacityWithoutConflicts)
{
    // Property: touching exactly `lines` distinct, set-balanced lines
    // of an S-set, A-way cache produces only cold misses on re-sweep.
    const auto [size_kb, assoc] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = size_kb * 1024;
    cfg.assoc = assoc;
    cfg.lineBytes = 32;
    DataCache cache(CacheKind::LockupFree, cfg);

    const int lines = int(cfg.sizeBytes / cfg.lineBytes);
    Cycle now = 100;
    for (int i = 0; i < lines; ++i)
        cache.load(Addr(i) * 32, now++, InstUid(i));
    EXPECT_EQ(cache.stats().loadMisses, std::uint64_t(lines));
    // Sweep again far in the future: everything is resident.
    now += 1000;
    for (int i = 0; i < lines; ++i)
        cache.load(Addr(i) * 32, now++, InstUid(1000 + i));
    EXPECT_EQ(cache.stats().loadMisses, std::uint64_t(lines));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 2),
                      std::make_tuple(4, 2), std::make_tuple(4, 4),
                      std::make_tuple(64, 2), std::make_tuple(16, 8)));

} // namespace
} // namespace drsim
