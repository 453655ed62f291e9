/**
 * @file
 * Differential test: CacheHierarchy + SnoopDomain against a plain
 * reference model (per-set LRU lists per level, every lookup followed by
 * an insert, every snoop and DMA visiting every level of every CPU), on
 * seeded random streams of CPU accesses, DMA transfers, and uncached
 * accesses. After every operation each AccessResult/DmaResult
 * field and every per-level and per-hierarchy counter must agree.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <memory>
#include <tuple>
#include <vector>

#include "src/mem/addr_alloc.hh"
#include "src/mem/hierarchy.hh"
#include "src/sim/random.hh"

using namespace na;
using namespace na::mem;

namespace {

/** One cache level: per-set list of lines, front == MRU. */
class RefLevel
{
  public:
    RefLevel(std::uint64_t size, unsigned assoc, unsigned line)
        : assoc(assoc), line(line),
          sets(static_cast<unsigned>(size / (std::uint64_t{assoc} * line))),
          data(sets)
    {
    }

    struct Entry
    {
        sim::Addr la;
        LineState state;
    };

    LineState
    lookup(sim::Addr la)
    {
        auto &set = data[setOf(la)];
        auto it = find(set, la);
        if (it == set.end()) {
            ++misses;
            return LineState::Invalid;
        }
        ++hits;
        set.splice(set.begin(), set, it);
        return set.front().state;
    }

    /** @return the displaced line, if the set was full. */
    Cache::Victim
    insert(sim::Addr la, LineState state)
    {
        Cache::Victim v;
        auto &set = data[setOf(la)];
        auto it = find(set, la);
        if (it != set.end()) {
            if (state == LineState::Modified)
                it->state = LineState::Modified;
            set.splice(set.begin(), set, it);
            return v;
        }
        if (set.size() >= assoc) {
            v.valid = true;
            v.lineAddr = set.back().la;
            v.dirty = set.back().state == LineState::Modified;
            ++evictions;
            if (v.dirty)
                ++writebacks;
            set.pop_back();
        }
        set.push_front({la, state});
        return v;
    }

    LineState
    probe(sim::Addr la) const
    {
        const auto &set = data[setOf(la)];
        for (const Entry &e : set) {
            if (e.la == la)
                return e.state;
        }
        return LineState::Invalid;
    }

    LineState
    invalidate(sim::Addr la)
    {
        auto &set = data[setOf(la)];
        auto it = find(set, la);
        if (it == set.end())
            return LineState::Invalid;
        const LineState prev = it->state;
        set.erase(it);
        ++snoopInvalidations;
        return prev;
    }

    bool
    downgrade(sim::Addr la)
    {
        auto &set = data[setOf(la)];
        auto it = find(set, la);
        if (it == set.end())
            return false;
        if (it->state == LineState::Modified)
            it->state = LineState::Shared;
        return true;
    }

    void
    setModified(sim::Addr la)
    {
        auto &set = data[setOf(la)];
        auto it = find(set, la);
        if (it != set.end())
            it->state = LineState::Modified;
    }

    double hits = 0, misses = 0, evictions = 0, writebacks = 0,
           snoopInvalidations = 0;

  private:
    unsigned assoc;
    unsigned line;
    unsigned sets;
    std::vector<std::list<Entry>> data;

    unsigned setOf(sim::Addr la) const
    {
        return static_cast<unsigned>((la / line) % sets);
    }

    static std::list<Entry>::iterator
    find(std::list<Entry> &set, sim::Addr la)
    {
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->la == la)
                return it;
        }
        return set.end();
    }
};

class RefDomain;

/** One CPU's L1/L2/L3 stack, composed of lookups and inserts. */
class RefHierarchy
{
  public:
    RefHierarchy(int cpu, const CacheGeometry &g, RefDomain &domain)
        : l1(g.l1Size, g.l1Assoc, g.lineBytes),
          l2(g.l2Size, g.l2Assoc, g.lineBytes),
          l3(g.l3Size, g.l3Assoc, g.lineBytes), cpu(cpu),
          line(g.lineBytes), domain(domain)
    {
    }

    AccessResult access(sim::Addr addr, std::uint32_t bytes, bool write,
                        double overlap);

    /** @return the line's state: the worst over every level. */
    LineState
    state(sim::Addr la) const
    {
        LineState s = LineState::Invalid;
        for (const RefLevel *l : {&l1, &l2, &l3}) {
            const LineState p = l->probe(la);
            if (p == LineState::Modified)
                return p;
            if (p != LineState::Invalid)
                s = p;
        }
        return s;
    }

    LineState
    snoopInvalidate(sim::Addr la)
    {
        const LineState p1 = l1.invalidate(la);
        const LineState p2 = l2.invalidate(la);
        const LineState p3 = l3.invalidate(la);
        if (p1 == LineState::Invalid && p2 == LineState::Invalid &&
            p3 == LineState::Invalid)
            return LineState::Invalid;
        ++linesStolen;
        return (p1 == LineState::Modified || p2 == LineState::Modified ||
                p3 == LineState::Modified)
                   ? LineState::Modified
                   : LineState::Shared;
    }

    void
    snoopDowngrade(sim::Addr la)
    {
        l1.downgrade(la);
        l2.downgrade(la);
        l3.downgrade(la);
    }

    RefLevel l1, l2, l3;
    int cpu;
    double accesses = 0, stallCycles = 0, linesStolen = 0;

  private:
    unsigned line;
    RefDomain &domain;

    /** Insert at one level; its victim leaves every inner level. */
    void
    install(RefLevel &level, sim::Addr la, LineState s)
    {
        const Cache::Victim v = level.insert(la, s);
        if (!v.valid)
            return;
        if (&level == &l3)
            l2.invalidate(v.lineAddr);
        if (&level != &l1)
            l1.invalidate(v.lineAddr);
    }
};

/** The snoop fabric: every snoop and DMA visits every CPU. */
class RefDomain
{
  public:
    explicit RefDomain(unsigned line) : line(line) {}

    LineState
    snoopWrite(int requester, sim::Addr la,
               std::array<std::uint32_t, maxSmpCpus> &stolen)
    {
        LineState found = LineState::Invalid;
        for (auto &h : cpus) {
            if (h->cpu == requester)
                continue;
            const LineState prev = h->snoopInvalidate(la);
            if (prev != LineState::Invalid) {
                stolen[static_cast<std::size_t>(h->cpu)] += 1;
                if (prev == LineState::Modified ||
                    found == LineState::Invalid)
                    found = prev;
            }
        }
        return found;
    }

    LineState
    snoopRead(int requester, sim::Addr la)
    {
        LineState found = LineState::Invalid;
        for (auto &h : cpus) {
            if (h->cpu == requester)
                continue;
            const LineState s = h->state(la);
            if (s == LineState::Modified) {
                h->snoopDowngrade(la);
                return s;
            }
            if (s != LineState::Invalid)
                found = LineState::Shared;
        }
        return found;
    }

    DmaResult
    dma(sim::Addr addr, std::uint32_t bytes)
    {
        DmaResult res;
        if (bytes == 0)
            return res;
        const sim::Addr first = addr / line * line;
        const sim::Addr last = (addr + bytes - 1) / line * line;
        for (sim::Addr la = first; la <= last; la += line) {
            ++res.lines;
            for (auto &h : cpus) {
                if (h->snoopInvalidate(la) != LineState::Invalid)
                    res.stolenFrom[static_cast<std::size_t>(h->cpu)]++;
            }
        }
        return res;
    }

    unsigned line;
    std::vector<std::unique_ptr<RefHierarchy>> cpus;
};

AccessResult
RefHierarchy::access(sim::Addr addr, std::uint32_t bytes, bool write,
                     double overlap)
{
    AccessResult res;
    if (bytes == 0)
        return res;
    const sim::Addr first = addr / line * line;
    const sim::Addr last = (addr + bytes - 1) / line * line;
    if (AddressAllocator::isUncacheable(addr)) {
        res.uncached = res.lines =
            static_cast<std::uint32_t>((last - first) / line + 1);
        res.stallCycles =
            std::uint64_t{res.lines} * (write ? MemTiming::uncachedWriteCycles
                                              : MemTiming::uncachedCycles);
        ++accesses;
        stallCycles += static_cast<double>(res.stallCycles);
        return res;
    }

    double stall = 0.0;
    for (sim::Addr la = first; la <= last; la += line) {
        ++res.lines;
        const LineState s1 = l1.lookup(la);
        if (s1 != LineState::Invalid) {
            ++res.l1Hits;
            stall += MemTiming::l1HitCycles;
            if (write && s1 == LineState::Shared) {
                domain.snoopWrite(cpu, la, res.stolenFrom);
                l1.setModified(la);
                l2.setModified(la);
                l3.setModified(la);
                ++res.upgrades;
                stall += MemTiming::upgradeCycles;
            }
            continue;
        }
        const LineState s2 = l2.lookup(la);
        LineState fillState;
        if (s2 != LineState::Invalid) {
            ++res.l2Hits;
            stall += MemTiming::l2HitCycles * overlap;
            if (write && s2 == LineState::Shared) {
                domain.snoopWrite(cpu, la, res.stolenFrom);
                ++res.upgrades;
                stall += MemTiming::upgradeCycles;
            }
            fillState = write ? LineState::Modified : s2;
        } else {
            ++res.l2Misses;
            const LineState s3 = l3.lookup(la);
            if (s3 != LineState::Invalid) {
                ++res.l3Hits;
                stall += MemTiming::l3HitCycles * overlap;
                if (write && s3 == LineState::Shared) {
                    domain.snoopWrite(cpu, la, res.stolenFrom);
                    ++res.upgrades;
                    stall += MemTiming::upgradeCycles;
                }
                fillState = write ? LineState::Modified : s3;
            } else {
                ++res.llcMisses;
                fillState = write ? LineState::Modified : LineState::Shared;
                const LineState remote =
                    write ? domain.snoopWrite(cpu, la, res.stolenFrom)
                          : domain.snoopRead(cpu, la);
                if (remote != LineState::Invalid) {
                    ++res.remoteHits;
                    stall += MemTiming::c2cCycles * overlap;
                } else {
                    stall += MemTiming::memCycles * overlap;
                }
            }
        }
        install(l3, la, fillState);
        install(l2, la, fillState);
        install(l1, la, fillState);
    }
    res.stallCycles = static_cast<std::uint64_t>(std::llround(stall));
    ++accesses;
    stallCycles += static_cast<double>(res.stallCycles);
    return res;
}

CacheGeometry
smallGeom()
{
    CacheGeometry g;
    g.l1Size = 1024;
    g.l1Assoc = 2;
    g.l2Size = 4096;
    g.l2Assoc = 4;
    g.l3Size = 16384;
    g.l3Assoc = 4;
    return g;
}

void
expectSameLevel(const Cache &c, const RefLevel &r, const char *what,
                int cpu, int op)
{
    EXPECT_EQ(c.hits.value(), r.hits) << what << cpu << " op " << op;
    EXPECT_EQ(c.misses.value(), r.misses) << what << cpu << " op " << op;
    EXPECT_EQ(c.evictions.value(), r.evictions)
        << what << cpu << " op " << op;
    EXPECT_EQ(c.writebacks.value(), r.writebacks)
        << what << cpu << " op " << op;
    EXPECT_EQ(c.snoopInvalidations.value(), r.snoopInvalidations)
        << what << cpu << " op " << op;
}

void
expectSameResult(const AccessResult &a, const AccessResult &b, int op)
{
    EXPECT_EQ(a.lines, b.lines) << "op " << op;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << "op " << op;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << "op " << op;
    EXPECT_EQ(a.l3Hits, b.l3Hits) << "op " << op;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << "op " << op;
    EXPECT_EQ(a.llcMisses, b.llcMisses) << "op " << op;
    EXPECT_EQ(a.remoteHits, b.remoteHits) << "op " << op;
    EXPECT_EQ(a.upgrades, b.upgrades) << "op " << op;
    EXPECT_EQ(a.uncached, b.uncached) << "op " << op;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << "op " << op;
    EXPECT_EQ(a.stolenFrom, b.stolenFrom) << "op " << op;
}

// (cpus, with DMA transfers, seed)
using Params = std::tuple<int, bool, std::uint64_t>;

class HierarchyVsReference : public ::testing::TestWithParam<Params>
{
};

TEST_P(HierarchyVsReference, RandomStreamAgrees)
{
    const auto [ncpus, with_dma, seed] = GetParam();
    const CacheGeometry geom = smallGeom();

    stats::Group root(nullptr, "");
    SnoopDomain domain;
    std::vector<std::unique_ptr<CacheHierarchy>> real;
    RefDomain ref(geom.lineBytes);
    for (int c = 0; c < ncpus; ++c) {
        std::string name = "h";
        name += std::to_string(c); // not "h" + ...: g++ 12 -Wrestrict
        real.push_back(std::make_unique<CacheHierarchy>(
            &root, name, c, geom, domain));
        ref.cpus.push_back(std::make_unique<RefHierarchy>(c, geom, ref));
    }

    // Two cacheable windows of 1024 lines each (four times the L3),
    // the first starting at address 0, plus the MMIO region.
    const sim::Addr windows[] = {
        0,
        AddressAllocator::regionBase(Region::SkbSlab),
        AddressAllocator::regionBase(Region::Mmio),
    };
    const std::uint64_t window_bytes = 1024 * geom.lineBytes;

    sim::Random rng(seed);
    for (int op = 0; op < 6000; ++op) {
        const sim::Addr base =
            windows[rng.chance(0.04) ? 2 : rng.range(0, 1)];
        const std::uint32_t nlines =
            static_cast<std::uint32_t>(rng.range(1, 64));
        const sim::Addr addr = base + rng.range(0, window_bytes);
        // Unaligned spans: start anywhere in the line, cover nlines.
        const std::uint32_t bytes =
            nlines * geom.lineBytes -
            static_cast<std::uint32_t>(addr % geom.lineBytes);

        const std::uint64_t kind = rng.range(0, 9);
        if (kind < 7) {
            const int cpu = static_cast<int>(rng.range(0, ncpus - 1));
            const bool write = rng.chance(0.4);
            const double overlap = rng.chance(0.5) ? 1.0 : 0.5;
            const AccessResult a =
                real[cpu]->access(addr, bytes, write, overlap);
            const AccessResult b =
                ref.cpus[cpu]->access(addr, bytes, write, overlap);
            expectSameResult(a, b, op);
        } else if (with_dma && base != windows[2]) {
            const DmaResult a = domain.dma(addr, bytes);
            const DmaResult b = ref.dma(addr, bytes);
            EXPECT_EQ(a.lines, b.lines) << "op " << op;
            EXPECT_EQ(a.stolenFrom, b.stolenFrom) << "op " << op;
        }

        for (int c = 0; c < ncpus; ++c) {
            const CacheHierarchy &h = *real[c];
            const RefHierarchy &r = *ref.cpus[c];
            expectSameLevel(h.l1, r.l1, "l1 cpu", c, op);
            expectSameLevel(h.l2, r.l2, "l2 cpu", c, op);
            expectSameLevel(h.l3, r.l3, "l3 cpu", c, op);
            EXPECT_EQ(h.accesses.value(), r.accesses) << "op " << op;
            EXPECT_EQ(h.stallCycleTotal.value(), r.stallCycles)
                << "op " << op;
            EXPECT_EQ(h.linesStolenByRemote.value(), r.linesStolen)
                << "op " << op;
            const sim::Addr la = addr / geom.lineBytes * geom.lineBytes;
            EXPECT_EQ(h.l1.probe(la), r.l1.probe(la)) << "op " << op;
            EXPECT_EQ(h.l2.probe(la), r.l2.probe(la)) << "op " << op;
            EXPECT_EQ(h.l3.probe(la), r.l3.probe(la)) << "op " << op;
        }
        if (HasFailure())
            FAIL() << "first divergence at op " << op << " (seed "
                   << seed << ")";
    }
}

// Streams with DMA (which invalidates, reads included, on the modeled
// chipset) and without it (lines live until evicted or snooped).
INSTANTIATE_TEST_SUITE_P(
    CpusAndDmaModes, HierarchyVsReference,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Bool(),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{7})),
    [](const ::testing::TestParamInfo<Params> &info) {
        return "cpus" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_dmaReadInv" : "_noDma") +
               "_seed" + std::to_string(std::get<2>(info.param));
    });

} // namespace
