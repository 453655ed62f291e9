/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "src/mem/cache.hh"

using namespace na;
using namespace na::mem;

namespace {

class CacheTest : public ::testing::Test
{
  protected:
    stats::Group root{nullptr, ""};
    // 4 KiB, 4-way, 64 B lines -> 16 sets.
    Cache cache{&root, "c", 4096, 4, 64};
};

TEST_F(CacheTest, Geometry)
{
    EXPECT_EQ(cache.sizeBytes(), 4096u);
    EXPECT_EQ(cache.associativity(), 4u);
    EXPECT_EQ(cache.sets(), 16u);
    EXPECT_EQ(cache.lineBytes(), 64u);
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST_F(CacheTest, MissThenHit)
{
    EXPECT_EQ(cache.lookup(0x1000), LineState::Invalid);
    EXPECT_EQ(cache.misses.value(), 1.0);
    cache.findOrInsert(0x1000, LineState::Shared);
    EXPECT_EQ(cache.lookup(0x1000), LineState::Shared);
    EXPECT_EQ(cache.hits.value(), 1.0);
}

TEST_F(CacheTest, SubLineAddressesShareALine)
{
    cache.findOrInsert(0x1000, LineState::Shared);
    EXPECT_EQ(cache.lookup(0x103f), LineState::Shared);
    EXPECT_EQ(cache.lookup(0x1040), LineState::Invalid); // next line
}

TEST_F(CacheTest, LruEvictsLeastRecentlyUsed)
{
    // Same set: addresses differ by sets*line = 1024.
    const sim::Addr base = 0x0;
    for (int i = 0; i < 4; ++i)
        cache.findOrInsert(base + static_cast<sim::Addr>(i) * 1024,
                           LineState::Shared);
    // Touch line 0 so line 1 is LRU.
    cache.lookup(base);
    const Cache::Victim v =
        cache.findOrInsert(base + 4 * 1024, LineState::Shared).victim;
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, base + 1024);
    EXPECT_FALSE(v.dirty);
    EXPECT_EQ(cache.lookup(base), LineState::Shared); // survived
    EXPECT_EQ(cache.lookup(base + 1024), LineState::Invalid);
}

TEST_F(CacheTest, DirtyVictimCountsWriteback)
{
    for (int i = 0; i < 4; ++i)
        cache.findOrInsert(static_cast<sim::Addr>(i) * 1024,
                           LineState::Modified);
    const Cache::Victim v =
        cache.findOrInsert(4 * 1024, LineState::Shared).victim;
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(cache.writebacks.value(), 1.0);
    EXPECT_EQ(cache.evictions.value(), 1.0);
}

TEST_F(CacheTest, InsertUpgradesInPlace)
{
    cache.findOrInsert(0x2000, LineState::Shared);
    const Cache::Victim v =
        cache.findOrInsert(0x2000, LineState::Modified).victim;
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(cache.probe(0x2000), LineState::Modified);
    // Re-inserting Shared must not downgrade.
    cache.findOrInsert(0x2000, LineState::Shared);
    EXPECT_EQ(cache.probe(0x2000), LineState::Modified);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST_F(CacheTest, InvalidateReturnsPreviousState)
{
    cache.findOrInsert(0x3000, LineState::Modified);
    EXPECT_EQ(cache.invalidate(0x3000), LineState::Modified);
    EXPECT_EQ(cache.probe(0x3000), LineState::Invalid);
    EXPECT_EQ(cache.invalidate(0x3000), LineState::Invalid);
    EXPECT_EQ(cache.snoopInvalidations.value(), 1.0);
}

TEST_F(CacheTest, DowngradeOnlyAffectsModified)
{
    cache.findOrInsert(0x4000, LineState::Modified);
    EXPECT_TRUE(cache.downgrade(0x4000));
    EXPECT_EQ(cache.probe(0x4000), LineState::Shared);
    EXPECT_TRUE(cache.downgrade(0x4000)); // present, stays Shared
    EXPECT_EQ(cache.probe(0x4000), LineState::Shared);
    EXPECT_FALSE(cache.downgrade(0x9000)); // absent
}

TEST_F(CacheTest, ProbeDoesNotTouchLru)
{
    for (int i = 0; i < 4; ++i)
        cache.findOrInsert(static_cast<sim::Addr>(i) * 1024,
                           LineState::Shared);
    cache.probe(0); // must NOT refresh line 0
    const Cache::Victim v =
        cache.findOrInsert(4 * 1024, LineState::Shared).victim;
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0u); // line 0 was still LRU
}

TEST_F(CacheTest, SetModifiedOnPresentLine)
{
    cache.findOrInsert(0x5000, LineState::Shared);
    cache.setModified(0x5000);
    EXPECT_EQ(cache.probe(0x5000), LineState::Modified);
}

TEST(CacheDeath, SetModifiedOnAbsentLinePanics)
{
    stats::Group root(nullptr, "");
    Cache cache(&root, "c", 4096, 4, 64);
    EXPECT_DEATH(cache.setModified(0x7777), "absent line");
}

TEST(CacheDeath, BadGeometryIsFatal)
{
    stats::Group root(nullptr, "");
    EXPECT_EXIT(Cache(&root, "c", 4096, 4, 60),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(Cache(&root, "c", 4000, 4, 64),
                ::testing::ExitedWithCode(1), "not divisible");
}

TEST(CacheDeath, ZeroWaysAndOneByteLinesAreFatal)
{
    stats::Group root(nullptr, "");
    EXPECT_EXIT(Cache(&root, "c", 4096, 0, 64),
                ::testing::ExitedWithCode(1), "not divisible");
    // A valid tag is the line address with bit 0 set, so bit 0 must
    // not be part of the line address.
    EXPECT_EXIT(Cache(&root, "c", 4096, 4, 1),
                ::testing::ExitedWithCode(1), "power of two >= 2");
}

TEST_F(CacheTest, LineAtAddressZeroIsCached)
{
    // Address 0 is a valid line: its tag must not read as empty.
    EXPECT_EQ(cache.lookup(0x0), LineState::Invalid);
    cache.findOrInsert(0x0, LineState::Modified);
    EXPECT_EQ(cache.lookup(0x10), LineState::Modified);
    EXPECT_EQ(cache.validLines(), 1u);
    EXPECT_EQ(cache.invalidate(0x0), LineState::Modified);
    EXPECT_EQ(cache.probe(0x0), LineState::Invalid);
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST_F(CacheTest, FillTakesFirstInvalidWayBeforeLru)
{
    // Fill a 4-way set, free two ways, then refill: the freed ways are
    // reused (no eviction) before any valid line is displaced, and the
    // next fill evicts the least recently used survivor.
    const sim::Addr stride = 1024; // same set
    for (int i = 0; i < 4; ++i)
        cache.findOrInsert(static_cast<sim::Addr>(i) * stride,
                           LineState::Shared);
    cache.invalidate(1 * stride);
    cache.invalidate(3 * stride);
    cache.lookup(0); // way 2 (line 2*stride) is now LRU
    EXPECT_FALSE(
        cache.findOrInsert(4 * stride, LineState::Shared).victim.valid);
    EXPECT_FALSE(
        cache.findOrInsert(5 * stride, LineState::Shared).victim.valid);
    EXPECT_EQ(cache.evictions.value(), 0.0);
    const Cache::Victim v =
        cache.findOrInsert(6 * stride, LineState::Shared).victim;
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 2 * stride);
}

TEST_F(CacheTest, FindOrInsertMissFillsLine)
{
    const auto r = cache.findOrInsert(0x1000, LineState::Shared);
    EXPECT_FALSE(r.hit());
    EXPECT_EQ(r.prev, LineState::Invalid);
    EXPECT_FALSE(r.victim.valid);
    EXPECT_EQ(cache.misses.value(), 1.0);
    EXPECT_EQ(cache.hits.value(), 0.0);
    EXPECT_EQ(cache.probe(0x1000), LineState::Shared);
}

TEST_F(CacheTest, FindOrInsertHitReportsPreviousStateAndUpgrades)
{
    cache.findOrInsert(0x1000, LineState::Shared);
    const auto r = cache.findOrInsert(0x1000, LineState::Modified);
    EXPECT_TRUE(r.hit());
    EXPECT_EQ(r.prev, LineState::Shared);
    EXPECT_EQ(cache.hits.value(), 1.0);
    EXPECT_EQ(cache.probe(0x1000), LineState::Modified);
    // A Shared request on a Modified line must not downgrade.
    const auto r2 = cache.findOrInsert(0x1000, LineState::Shared);
    EXPECT_EQ(r2.prev, LineState::Modified);
    EXPECT_EQ(cache.probe(0x1000), LineState::Modified);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST_F(CacheTest, FindOrInsertEvictsExactlyLikeLookupPlusInsert)
{
    // Fill one set, touch line 0, then fill a fifth line: the single
    // merged walk must pick the same LRU victim the split path did
    // (see LruEvictsLeastRecentlyUsed) and count one eviction.
    for (int i = 0; i < 4; ++i)
        cache.findOrInsert(static_cast<sim::Addr>(i) * 1024,
                           LineState::Shared);
    cache.lookup(0);
    const auto r = cache.findOrInsert(4 * 1024, LineState::Modified);
    EXPECT_FALSE(r.hit());
    ASSERT_TRUE(r.victim.valid);
    EXPECT_EQ(r.victim.lineAddr, 1024u);
    EXPECT_FALSE(r.victim.dirty);
    EXPECT_EQ(cache.evictions.value(), 1.0);
    EXPECT_EQ(cache.writebacks.value(), 0.0);
    EXPECT_EQ(cache.probe(4 * 1024), LineState::Modified);
}

TEST_F(CacheTest, FindOrInsertDirtyVictimCountsWriteback)
{
    for (int i = 0; i < 4; ++i)
        cache.findOrInsert(static_cast<sim::Addr>(i) * 1024,
                           LineState::Modified);
    const auto r = cache.findOrInsert(4 * 1024, LineState::Shared);
    ASSERT_TRUE(r.victim.valid);
    EXPECT_TRUE(r.victim.dirty);
    EXPECT_EQ(cache.writebacks.value(), 1.0);
}

TEST_F(CacheTest, MruMemoSurvivesInvalidationAndFlush)
{
    // A line just looked up must miss once invalidated: no lookup
    // reports a stale hit.
    cache.findOrInsert(0x2000, LineState::Shared);
    EXPECT_EQ(cache.lookup(0x2000), LineState::Shared);
    cache.invalidate(0x2000);
    EXPECT_EQ(cache.lookup(0x2000), LineState::Invalid);
    EXPECT_EQ(cache.snoopInvalidations.value(), 1.0);
}

TEST_F(CacheTest, MruMemoDistinguishesLinesInOneSet)
{
    // Two lines mapping to the same set: alternating lookups must each
    // revalidate against the full tag, not just the memoized way.
    cache.findOrInsert(0x0, LineState::Shared);
    cache.findOrInsert(1024, LineState::Modified); // same set, different tag
    EXPECT_EQ(cache.lookup(0x0), LineState::Shared);
    EXPECT_EQ(cache.lookup(1024), LineState::Modified);
    EXPECT_EQ(cache.lookup(0x0), LineState::Shared);
    EXPECT_EQ(cache.hits.value(), 3.0);
}

TEST_F(CacheTest, DifferentSetsDoNotConflict)
{
    // Fill way beyond one set's capacity across different sets.
    for (int i = 0; i < 16; ++i)
        cache.findOrInsert(static_cast<sim::Addr>(i) * 64, LineState::Shared);
    EXPECT_EQ(cache.evictions.value(), 0.0);
    EXPECT_EQ(cache.validLines(), 16u);
}

} // namespace
