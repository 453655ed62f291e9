/**
 * @file
 * A set-associative, write-back cache model with MSI-style line states.
 *
 * Used for all three data levels (L1D, L2, L3). Lookup and fill operate
 * on line addresses; timing is composed by mem::CacheHierarchy. The model
 * tracks true LRU within each set.
 */

#ifndef NETAFFINITY_MEM_CACHE_HH
#define NETAFFINITY_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::mem {

/** Coherence state of a cached line (MSI subset of MESI). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/**
 * One set-associative cache level.
 *
 * All addresses passed in are byte addresses; the cache masks them to
 * line granularity internally.
 */
class Cache : public stats::Group
{
  public:
    /**
     * @param parent stats parent group
     * @param name cache name, e.g. "l2"
     * @param size_bytes total capacity
     * @param assoc ways per set (must divide size/lineSize)
     * @param line_bytes cache line size (64 for the modeled Xeons)
     */
    Cache(stats::Group *parent, const std::string &name,
          std::uint64_t size_bytes, unsigned assoc,
          unsigned line_bytes = 64);

    /**
     * Look up a line; updates LRU on hit.
     * @return state found (Invalid means miss).
     */
    LineState lookup(sim::Addr addr);

    /** @return state without touching LRU (for snoops / tests). */
    LineState probe(sim::Addr addr) const;

    /** What a fill displaced, if anything. */
    struct Victim
    {
        bool valid = false;      ///< an existing line was displaced
        sim::Addr lineAddr = 0;  ///< address of the displaced line
        bool dirty = false;      ///< displaced line was Modified
    };

    /** Outcome of findOrInsert(): previous state plus any victim. */
    struct FindOrInsertResult
    {
        LineState prev = LineState::Invalid; ///< state before the call
        Victim victim;                       ///< displaced line on miss

        /** @return true if the line was already present. */
        bool hit() const { return prev != LineState::Invalid; }
    };

    /**
     * Look up a line and fill it on a miss, in one walk of the set:
     * counts one hit or one miss, touches LRU exactly once, fills (in
     * @p state, over the first Invalid way, else the LRU way, counting
     * evictions/writebacks) only on a miss, and on a hit upgrades to
     * Modified iff @p state is Modified (never downgrades).
     */
    FindOrInsertResult findOrInsert(sim::Addr addr, LineState state);

    /**
     * Invalidate a line (snoop or back-invalidate).
     * @return previous state (Invalid if it was not present).
     */
    LineState invalidate(sim::Addr addr);

    /**
     * Downgrade Modified -> Shared (remote read snoop hit).
     * @return true if the line was present.
     */
    bool downgrade(sim::Addr addr);

    /** Mark an already-present line Modified (write hit). */
    void setModified(sim::Addr addr);

    /** @return number of valid lines currently cached. */
    std::uint64_t validLines() const;

    unsigned lineBytes() const { return lineSize; }
    std::uint64_t sizeBytes() const { return numSets * assoc * lineSize; }
    unsigned associativity() const { return assoc; }
    unsigned sets() const { return numSets; }

    /** @name Statistics @{ */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;
    stats::Scalar writebacks;
    stats::Scalar snoopInvalidations;
    /** @} */

  private:
    /** CacheHierarchy fills lines it knows are absent via fill(). */
    friend class CacheHierarchy;

    /**
     * One way. An Invalid way is all-zero: tag 0 and lru 0. A valid way
     * stores `lineAddr | 1` (line addresses are aligned, so bit 0 is
     * free and address 0 stays representable) and an lru stamp >= 1.
     */
    struct Line
    {
        sim::Addr tag = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lru = 0; ///< larger == more recently used
    };

    unsigned lineSize;
    unsigned assoc;
    unsigned numSets;
    unsigned lineShift;
    unsigned setMask;
    std::uint64_t lruCounter = 0;
    std::vector<Line> lines; ///< numSets * assoc, set-major

    sim::Addr lineAddr(sim::Addr addr) const
    {
        return addr >> lineShift << lineShift;
    }

    /** @return the first way of @p addr's set. */
    Line *setOf(sim::Addr addr)
    {
        const unsigned set =
            static_cast<unsigned>(addr >> lineShift) & setMask;
        return &lines[static_cast<std::size_t>(set) * assoc];
    }

    Line *findLine(sim::Addr addr);
    const Line *findLine(sim::Addr addr) const;

    /** Bump @p line to MRU; upgrade to Modified iff @p state is. */
    void
    touch(Line &line, LineState state)
    {
        if (state == LineState::Modified)
            line.state = LineState::Modified;
        line.lru = ++lruCounter;
    }

    /**
     * Install an absent line in @p state over the set's victim: the
     * first Invalid way, else the LRU way (counting the eviction and
     * any writeback).
     * @return the displaced line, if any.
     */
    Victim fill(sim::Addr addr, LineState state);
};

// The short hot-path methods live in the header so callers in other
// translation units (CacheHierarchy in particular) can inline them.

/**
 * Compares every way with no early exit, so the walk costs the same
 * whether or where the line hits and has no data-dependent branch.
 */
inline Cache::Line *
Cache::findLine(sim::Addr addr)
{
    const sim::Addr key = lineAddr(addr) | 1;
    Line *set = setOf(addr);
    Line *hit = nullptr;
    for (unsigned w = 0; w < assoc; ++w)
        hit = set[w].tag == key ? &set[w] : hit;
    return hit;
}

inline const Cache::Line *
Cache::findLine(sim::Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

inline LineState
Cache::lookup(sim::Addr addr)
{
    Line *line = findLine(addr);
    if (!line) {
        ++misses;
        return LineState::Invalid;
    }
    ++hits;
    line->lru = ++lruCounter;
    return line->state;
}

inline LineState
Cache::probe(sim::Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->state : LineState::Invalid;
}

inline LineState
Cache::invalidate(sim::Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return LineState::Invalid;
    const LineState prev = line->state;
    *line = Line{};
    ++snoopInvalidations;
    return prev;
}

inline bool
Cache::downgrade(sim::Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    if (line->state == LineState::Modified)
        line->state = LineState::Shared;
    return true;
}

inline Cache::Victim
Cache::fill(sim::Addr addr, LineState state)
{
    // Invalid ways have lru 0 and valid stamps start at 1, so a strict
    // min-scan picks the first Invalid way, else the LRU way.
    Line *set = setOf(addr);
    Line *target = set;
    for (unsigned w = 1; w < assoc; ++w)
        target = set[w].lru < target->lru ? &set[w] : target;

    Victim victim;
    victim.valid = target->tag != 0;
    victim.lineAddr = target->tag & ~sim::Addr{1};
    victim.dirty = target->state == LineState::Modified;
    evictions += victim.valid;
    writebacks += victim.dirty;
    target->tag = lineAddr(addr) | 1;
    target->state = state;
    target->lru = ++lruCounter;
    return victim;
}

inline Cache::FindOrInsertResult
Cache::findOrInsert(sim::Addr addr, LineState state)
{
    FindOrInsertResult res;
    if (Line *line = findLine(addr)) {
        res.prev = line->state;
        ++hits;
        touch(*line, state);
        return res;
    }
    ++misses;
    res.victim = fill(addr, state);
    return res;
}

} // namespace na::mem

#endif // NETAFFINITY_MEM_CACHE_HH
