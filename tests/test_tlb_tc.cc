/**
 * @file
 * Unit tests for the TLB and trace cache models, and a differential
 * test of the trace cache against a list+map LRU reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/mem/tlb.hh"
#include "src/mem/trace_cache.hh"
#include "src/sim/random.hh"

using namespace na;
using namespace na::mem;

namespace {

/** Function ids the unit tests may use. */
constexpr std::size_t kFuncs = 16;

TEST(Tlb, WalkThenHit)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same page
    EXPECT_FALSE(tlb.access(0x2000)); // next page
    EXPECT_EQ(tlb.walks.value(), 2.0);
    EXPECT_EQ(tlb.hits.value(), 2.0);
}

TEST(Tlb, LruEvictionAtCapacity)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);        // refresh page 0
    tlb.access(0x2000);        // evicts page 1
    EXPECT_TRUE(tlb.resident(0x0000));
    EXPECT_FALSE(tlb.resident(0x1000));
    EXPECT_TRUE(tlb.resident(0x2000));
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, ResidentDoesNotRefreshLru)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.resident(0x0000); // must not refresh
    tlb.access(0x2000);   // evicts page 0 (still LRU)
    EXPECT_FALSE(tlb.resident(0x0000));
}

TEST(TlbDeath, ZeroEntriesIsFatal)
{
    stats::Group root(nullptr, "");
    EXPECT_EXIT(Tlb(&root, "dtlb", 0), ::testing::ExitedWithCode(1),
                "at least one entry");
}

TEST(TraceCache, HitAfterBuild)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 1024, kFuncs);
    EXPECT_GT(tc.access(1, 256), 0u);
    EXPECT_EQ(tc.access(1, 256), 0u);
    EXPECT_TRUE(tc.resident(1));
    EXPECT_EQ(tc.usedBytes(), 256u);
}

TEST(TraceCache, MissCountsTraceLines)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 4096, kFuncs);
    EXPECT_EQ(tc.access(1, 256), 4u);  // 256/64
    EXPECT_EQ(tc.access(2, 100), 2u);  // ceil(100/64)
}

TEST(TraceCache, EvictsLruWhenFull)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 512, kFuncs);
    tc.access(1, 256);
    tc.access(2, 256);
    tc.access(1, 256); // refresh 1
    tc.access(3, 256); // evicts 2
    EXPECT_TRUE(tc.resident(1));
    EXPECT_FALSE(tc.resident(2));
    EXPECT_TRUE(tc.resident(3));
    EXPECT_LE(tc.usedBytes(), 512u);
}

TEST(TraceCache, OversizedFunctionStreams)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 256, kFuncs);
    EXPECT_EQ(tc.access(1, 1024), 16u);
    EXPECT_FALSE(tc.resident(1)); // never resident
    EXPECT_EQ(tc.access(1, 1024), 16u); // misses again
    EXPECT_EQ(tc.usedBytes(), 0u);
}

TEST(TraceCacheDeath, OutOfRangeIdPanics)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 1024, 4);
    EXPECT_EQ(tc.access(3, 64), 1u);
    EXPECT_DEATH(tc.access(4, 64), "function id 4 out of range");
    EXPECT_DEATH((void)tc.resident(4), "function id 4 out of range");
}

/**
 * Reference trace cache: a std::list in LRU order (front == most
 * recent) indexed by an unordered_map, evicting from the back until
 * the footprint fits.
 */
class RefTraceCache
{
  public:
    explicit RefTraceCache(std::uint64_t capacity) : capacity(capacity) {}

    unsigned
    access(std::uint16_t func, std::uint32_t bytes)
    {
        auto it = map.find(func);
        if (it != map.end()) {
            ++hits;
            lru.splice(lru.begin(), lru, it->second);
            return 0;
        }
        const unsigned lines = static_cast<unsigned>((bytes + 63) / 64);
        misses += lines;
        if (bytes > capacity)
            return lines;
        while (used + bytes > capacity && !lru.empty()) {
            used -= lru.back().bytes;
            map.erase(lru.back().func);
            lru.pop_back();
        }
        lru.push_front(Entry{func, bytes});
        map[func] = lru.begin();
        used += bytes;
        return lines;
    }

    bool resident(std::uint16_t func) const { return map.count(func); }

    double hits = 0;
    double misses = 0;
    std::uint64_t used = 0;

  private:
    struct Entry
    {
        std::uint16_t func;
        std::uint32_t bytes;
    };

    std::uint64_t capacity;
    std::list<Entry> lru;
    std::unordered_map<std::uint16_t, std::list<Entry>::iterator> map;
};

TEST(TraceCacheDiff, SeededStreamsMatchListLru)
{
    constexpr std::size_t funcs = 48;
    const std::uint64_t capacities[] = {
        0, 1, 63, 64, 256, 1000, 4096, 48 * 1024, 64 * 1024};
    for (const std::uint64_t cap : capacities) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << "capacity " << cap << " seed " << seed);
            stats::Group root(nullptr, "");
            TraceCache tc(&root, "tc", cap, funcs);
            RefTraceCache ref(cap);
            sim::Random rng(seed * 1000 + cap);

            // Each function mostly runs with its own footprint, as in
            // the simulator; some runs use another one (a hit keeps the
            // resident footprint), and some footprints exceed the whole
            // cache.
            const std::uint64_t typical =
                std::max<std::uint64_t>(cap / 6, 64);
            std::vector<std::uint32_t> footprint(funcs);
            for (auto &f : footprint) {
                f = static_cast<std::uint32_t>(
                    rng.chance(0.1) ? rng.range(cap, 2 * cap + 64)
                                    : rng.range(0, typical));
            }

            for (int op = 0; op < 2000; ++op) {
                // Skewed ids: a hot few recur, the rest churn.
                const auto id = static_cast<std::uint16_t>(
                    rng.chance(0.5) ? rng.range(0, 5)
                                    : rng.range(0, funcs - 1));
                const std::uint32_t bytes =
                    rng.chance(0.9)
                        ? footprint[id]
                        : static_cast<std::uint32_t>(
                              rng.range(0, 2 * cap + 64));
                ASSERT_EQ(tc.access(id, bytes), ref.access(id, bytes))
                    << "op " << op << " id " << id << " bytes " << bytes;
                ASSERT_EQ(tc.hits.value(), ref.hits) << "op " << op;
                ASSERT_EQ(tc.misses.value(), ref.misses) << "op " << op;
                ASSERT_EQ(tc.usedBytes(), ref.used) << "op " << op;
                for (std::uint16_t f = 0; f < funcs; ++f) {
                    ASSERT_EQ(tc.resident(f), ref.resident(f))
                        << "op " << op << " func " << f;
                }
            }
        }
    }
}

} // namespace
