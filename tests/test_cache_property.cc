/**
 * @file
 * Property test: the set-associative cache model against a simple
 * reference implementation (per-set LRU lists), over random access
 * streams swept across geometries and seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <tuple>

#include "src/mem/cache.hh"
#include "src/sim/random.hh"

using namespace na;
using namespace na::mem;

namespace {

/**
 * Obviously-correct reference: per-set list of lines with their states,
 * front == MRU. Invalidated lines leave the list, so a set evicts only
 * when it holds assoc lines. Counts what Cache counts.
 */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned assoc, unsigned line)
        : sets(sets), assoc(assoc), line(line)
    {
    }

    /** What an insert displaced. */
    struct Victim
    {
        bool valid = false;
        sim::Addr lineAddr = 0;
        bool dirty = false;
    };

    /** @return the line's state (Invalid on a miss); a hit becomes MRU. */
    LineState
    lookup(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        const auto it = find(set, addr);
        if (it == set.end()) {
            ++misses;
            return LineState::Invalid;
        }
        ++hits;
        set.splice(set.begin(), set, it);
        return set.front().state;
    }

    /**
     * Fill a line in @p state as MRU, evicting the LRU line of a full
     * set; a present line becomes MRU and is upgraded, never downgraded.
     */
    Victim
    insert(sim::Addr addr, LineState state)
    {
        auto &set = data[setOf(addr)];
        const auto it = find(set, addr);
        if (it != set.end()) {
            set.splice(set.begin(), set, it);
            if (state == LineState::Modified)
                set.front().state = state;
            return {};
        }
        Victim victim;
        if (set.size() >= assoc) {
            victim = {true, set.back().addr,
                      set.back().state == LineState::Modified};
            ++evictions;
            writebacks += victim.dirty;
            set.pop_back();
        }
        set.push_front({lineOf(addr), state});
        return victim;
    }

    /** @return the line's previous state; the line leaves its set. */
    LineState
    invalidate(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        const auto it = find(set, addr);
        if (it == set.end())
            return LineState::Invalid;
        const LineState prev = it->state;
        set.erase(it);
        ++snoopInvalidations;
        return prev;
    }

    /** Modified -> Shared. @return true if the line was present. */
    bool
    downgrade(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        const auto it = find(set, addr);
        if (it == set.end())
            return false;
        it->state = LineState::Shared;
        return true;
    }

    /** @return the line's state, without touching LRU. */
    LineState
    probe(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        const auto it = find(set, addr);
        return it == set.end() ? LineState::Invalid : it->state;
    }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const auto &[index, set] : data)
            n += set.size();
        return n;
    }

    double hits = 0;
    double misses = 0;
    double evictions = 0;
    double writebacks = 0;
    double snoopInvalidations = 0;

  private:
    struct Line
    {
        sim::Addr addr;
        LineState state;
    };
    using Set = std::list<Line>;

    unsigned sets;
    unsigned assoc;
    unsigned line;
    std::map<unsigned, Set> data;

    sim::Addr lineOf(sim::Addr a) const { return a / line * line; }
    unsigned setOf(sim::Addr a) const
    {
        return static_cast<unsigned>((a / line) % sets);
    }

    Set::iterator
    find(Set &set, sim::Addr addr) const
    {
        const sim::Addr la = lineOf(addr);
        return std::find_if(set.begin(), set.end(),
                            [la](const Line &l) { return l.addr == la; });
    }
};

using Geometry = std::tuple<unsigned, unsigned, std::uint64_t>;
// (assoc, lineBytes, seed)

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, RandomStreamAgrees)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 16;
    stats::Group root(nullptr, "");
    Cache cache(&root, "c",
                static_cast<std::uint64_t>(sets) * assoc * line, assoc,
                line);
    RefCache ref(sets, assoc, line);
    sim::Random rng(seed);

    for (int i = 0; i < 20000; ++i) {
        // Skewed address stream: hot region + cold tail.
        const sim::Addr addr =
            rng.chance(0.7) ? rng.range(0, sets * assoc * line / 2)
                            : rng.range(0, 1u << 20);
        const bool hit = cache.findOrInsert(addr, LineState::Shared).hit();
        const bool ref_hit = ref.lookup(addr) != LineState::Invalid;
        if (!ref_hit)
            ref.insert(addr, LineState::Shared);
        ASSERT_EQ(hit, ref_hit) << "divergence at access " << i
                                << " addr " << addr;
    }
}

TEST_P(CacheVsReference, InvalidationsAgree)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 8;
    stats::Group root(nullptr, "");
    Cache cache(&root, "c",
                static_cast<std::uint64_t>(sets) * assoc * line, assoc,
                line);
    RefCache ref(sets, assoc, line);
    sim::Random rng(seed * 31 + 7);

    for (int i = 0; i < 8000; ++i) {
        const sim::Addr addr = rng.range(0, 1u << 16);
        if (rng.chance(0.2)) {
            // Random snoop invalidation, mirrored in the reference.
            ASSERT_EQ(cache.probe(addr), ref.probe(addr));
            cache.invalidate(addr);
            ref.invalidate(addr);
        } else {
            const bool hit =
                cache.findOrInsert(addr, LineState::Shared).hit();
            const bool ref_hit = ref.lookup(addr) != LineState::Invalid;
            if (!ref_hit)
                ref.insert(addr, LineState::Shared);
            ASSERT_EQ(hit, ref_hit) << "divergence at access " << i;
        }
    }
    EXPECT_LE(cache.validLines(),
              static_cast<std::uint64_t>(sets) * assoc);
}

/**
 * findOrInsert against the reference's composed lookup -> insert ->
 * upgrade sequence: same previous states, victims, counters and line
 * states, on a mixed stream of reads, writes, snoop invalidations, and
 * snoop downgrades. This is the equivalence the hierarchy's
 * bit-identical results rest on.
 */
TEST_P(CacheVsReference, FindOrInsertMatchesComposedPath)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 8;
    stats::Group root(nullptr, "");
    Cache cache(&root, "c",
                static_cast<std::uint64_t>(sets) * assoc * line, assoc,
                line);
    RefCache ref(sets, assoc, line);
    sim::Random rng(seed * 97 + 13);

    for (int i = 0; i < 12000; ++i) {
        const sim::Addr addr = rng.range(0, 1u << 16);
        if (rng.chance(0.08)) {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "invalidate divergence at access " << i;
            continue;
        }
        if (rng.chance(0.08)) {
            ASSERT_EQ(cache.downgrade(addr), ref.downgrade(addr))
                << "downgrade divergence at access " << i;
            continue;
        }
        const bool write = rng.chance(0.3);
        const LineState want =
            write ? LineState::Modified : LineState::Shared;

        const LineState prev = ref.lookup(addr);
        RefCache::Victim victim;
        if (prev == LineState::Invalid)
            victim = ref.insert(addr, want);
        else if (write)
            ref.insert(addr, want);

        const auto r = cache.findOrInsert(addr, want);
        ASSERT_EQ(r.prev, prev) << "state divergence at access " << i
                                << " addr " << addr;
        ASSERT_EQ(r.victim.valid, victim.valid)
            << "victim divergence at access " << i;
        if (victim.valid) {
            ASSERT_EQ(r.victim.lineAddr, victim.lineAddr)
                << "victim address divergence at access " << i;
            ASSERT_EQ(r.victim.dirty, victim.dirty)
                << "victim dirtiness divergence at access " << i;
        }
        ASSERT_EQ(cache.probe(addr), ref.probe(addr))
            << "line state divergence at access " << i;
    }

    EXPECT_EQ(cache.hits.value(), ref.hits);
    EXPECT_EQ(cache.misses.value(), ref.misses);
    EXPECT_EQ(cache.evictions.value(), ref.evictions);
    EXPECT_EQ(cache.writebacks.value(), ref.writebacks);
    EXPECT_EQ(cache.snoopInvalidations.value(), ref.snoopInvalidations);
    EXPECT_EQ(cache.validLines(), ref.validLines());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Geometry{1, 64, 1}, Geometry{2, 64, 2},
                      Geometry{4, 64, 3}, Geometry{8, 64, 4},
                      Geometry{4, 32, 5}, Geometry{4, 128, 6},
                      Geometry{16, 64, 7}, Geometry{8, 128, 8}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "assoc" + std::to_string(std::get<0>(info.param)) +
               "_line" + std::to_string(std::get<1>(info.param)) +
               "_seed" + std::to_string(std::get<2>(info.param));
    });

} // namespace
