/**
 * @file
 * Unit tests for the TLB and trace cache models, and differential
 * tests of both against list+map LRU references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <unordered_map>
#include <unordered_set>
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

TEST(TlbDeath, MoreThanMaxEntriesIsFatal)
{
    stats::Group root(nullptr, "");
    EXPECT_EXIT(Tlb(&root, "dtlb", Tlb::maxEntries + 1),
                ::testing::ExitedWithCode(1), "more than 4096");
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
 * Reference TLB: the list+map model Tlb used to be, a std::list in LRU
 * order (front == most recent) indexed by an unordered_map.
 */
class RefTlb
{
  public:
    explicit RefTlb(unsigned entries) : entries(entries) {}

    bool
    access(std::uint64_t page)
    {
        auto it = map.find(page);
        if (it != map.end()) {
            ++hits;
            lru.splice(lru.begin(), lru, it->second);
            return true;
        }
        ++walks;
        if (map.size() >= entries) {
            map.erase(lru.back());
            lru.pop_back();
        }
        lru.push_front(page);
        map[page] = lru.begin();
        return false;
    }

    bool resident(std::uint64_t page) const { return map.count(page); }
    std::uint64_t size() const { return map.size(); }
    /** @return the least recently used page; the TLB must not be empty. */
    std::uint64_t lruPage() const { return lru.back(); }

    double hits = 0;
    double walks = 0;

  private:
    unsigned entries;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        map;
};

/**
 * The index cell Tlb's probe for @p page starts at, for a TLB of
 * @p entries: the same multiplicative hash over an index of
 * bit_ceil(4 x entries) cells. Used only to pick colliding pages; if
 * the hash changes, the streams stay valid but collide less.
 */
std::uint64_t
tlbHome(std::uint64_t page, unsigned entries)
{
    const std::uint64_t cells = std::bit_ceil(std::uint64_t{4} * entries);
    return (page * 0x9E3779B97F4A7C15ull) >>
           (64 - std::countr_zero(cells));
}

/** How a differential stream picks its pages. */
enum class TlbStream
{
    Random,     ///< distinct random pages, drawn uniformly
    Sequential, ///< consecutive pages, touched in ascending runs
    Colliding,  ///< mostly pages whose probes start in the last cells
};

/**
 * The page universe of one stream: @p count distinct page numbers.
 * Colliding universes take up to 160 pages whose probe starts in one of
 * the index's last two cells, so their cluster wraps past the end of
 * the table, and fill the rest with random pages.
 */
std::vector<std::uint64_t>
tlbUniverse(TlbStream kind, unsigned entries, std::size_t count,
            sim::Random &rng)
{
    std::vector<std::uint64_t> pages;
    if (kind == TlbStream::Sequential) {
        const std::uint64_t base = rng.range(0, 1u << 20);
        for (std::size_t k = 0; k < count; ++k)
            pages.push_back(base + k);
        return pages;
    }
    std::unordered_set<std::uint64_t> seen;
    if (kind == TlbStream::Colliding) {
        const std::uint64_t cells =
            std::bit_ceil(std::uint64_t{4} * entries);
        for (std::uint64_t page = rng.range(0, 1u << 20);
             pages.size() < std::min<std::size_t>(count, 160); ++page) {
            if (tlbHome(page, entries) >= cells - 2 &&
                seen.insert(page).second)
                pages.push_back(page);
        }
    }
    while (pages.size() < count) {
        const std::uint64_t page = rng.range(0, std::uint64_t{1} << 40);
        if (seen.insert(page).second)
            pages.push_back(page);
    }
    return pages;
}

TEST(TlbDiff, SeededStreamsMatchListLru)
{
    for (const unsigned cap : {1u, 2u, 3u, 63u, 64u, 65u, 4096u}) {
        // Universes smaller than, equal to and several times the
        // capacity.
        const std::size_t universes[] = {std::max(cap / 2, 1u), cap,
                                         std::size_t{4} * cap};
        const int ops = std::max(3000, 3 * static_cast<int>(cap) / 2);
        for (const TlbStream kind :
             {TlbStream::Random, TlbStream::Sequential,
              TlbStream::Colliding}) {
            for (const std::size_t count : universes) {
                SCOPED_TRACE(::testing::Message()
                             << "capacity " << cap << " stream "
                             << static_cast<int>(kind) << " universe "
                             << count);
                stats::Group root(nullptr, "");
                Tlb tlb(&root, "tlb", cap);
                RefTlb ref(cap);
                sim::Random rng(cap * 1000 + count * 10 +
                                static_cast<unsigned>(kind));
                const std::vector<std::uint64_t> pages =
                    tlbUniverse(kind, cap, count, rng);
                std::unordered_map<std::uint64_t, std::size_t> posOf;
                for (std::size_t k = 0; k < count; ++k)
                    posOf[pages[k]] = k;

                // The reference's resident set by universe position,
                // kept from what each access evicts, so that checking
                // every page after every access stays cheap. It is
                // checked against the reference itself periodically.
                std::vector<char> inRef(count, 0);
                std::size_t next = 0;
                for (int op = 0; op < ops; ++op) {
                    // Sequential streams walk the universe in runs from
                    // a random start; the others draw each page
                    // uniformly.
                    std::size_t k;
                    if (kind == TlbStream::Sequential) {
                        if (rng.chance(1.0 / 8))
                            next = rng.range(0, count - 1);
                        k = next;
                        next = (next + 1) % count;
                    } else {
                        k = rng.range(0, count - 1);
                    }
                    const std::uint64_t page = pages[k];
                    const sim::Addr addr =
                        (page << Tlb::pageShift) |
                        rng.range(0, (1u << Tlb::pageShift) - 1);
                    if (!ref.resident(page) && ref.size() == cap)
                        inRef[posOf.at(ref.lruPage())] = 0;
                    inRef[k] = 1;
                    ASSERT_EQ(tlb.access(addr), ref.access(page))
                        << "op " << op << " page " << page;
                    ASSERT_EQ(tlb.hits.value(), ref.hits) << "op " << op;
                    ASSERT_EQ(tlb.walks.value(), ref.walks) << "op " << op;
                    ASSERT_EQ(tlb.size(), ref.size()) << "op " << op;
                    std::size_t j = 0;
                    while (j < count &&
                           tlb.resident(pages[j] << Tlb::pageShift) ==
                               (inRef[j] != 0))
                        ++j;
                    ASSERT_EQ(j, count)
                        << "op " << op << ": page " << pages[j]
                        << " resident " << !inRef[j]
                        << ", reference resident " << !!inRef[j];
                    if (op % 256 == 0 || op == ops - 1) {
                        for (std::size_t m = 0; m < count; ++m)
                            ASSERT_EQ(inRef[m] != 0, ref.resident(pages[m]));
                    }
                }
            }
        }
    }
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
