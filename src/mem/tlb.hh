/**
 * @file
 * A fully-associative, LRU translation lookaside buffer model.
 *
 * Misses represent page walks; the walk penalty is charged by the CPU's
 * timing model, this class only tracks presence. The modeled Xeons use
 * 4 KiB pages.
 */

#ifndef NETAFFINITY_MEM_TLB_HH
#define NETAFFINITY_MEM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::mem {

/**
 * Fully-associative LRU TLB (used for both ITLB and DTLB).
 *
 * Both arrays are allocated at construction and never resized. The
 * resident pages live in fixed slots threaded on a doubly linked
 * recency list (head == most recent, tail == the next victim), so a hit
 * relinks one slot in O(1). Pages are found through an open-addressed
 * index of slot numbers, at least four times the entry count and
 * probed linearly; evicting a page shifts its cluster back, so the
 * index holds no tombstones.
 */
class Tlb : public stats::Group
{
  public:
    static constexpr unsigned pageShift = 12; ///< 4 KiB pages
    /** Largest entry count; the constructor rejects more. */
    static constexpr unsigned maxEntries = 4096;

    Tlb(stats::Group *parent, const std::string &name, unsigned entries);

    /**
     * Translate the page containing @p addr.
     * @return true on hit; false means a page walk occurred (the entry
     *         is installed as a side effect).
     */
    bool access(sim::Addr addr);

    /** @return true if the page is currently resident (no LRU update). */
    bool resident(sim::Addr addr) const;

    unsigned capacity() const { return numEntries; }
    std::uint64_t size() const { return used; }

    stats::Scalar hits;
    stats::Scalar walks;

  private:
    using PageNum = std::uint64_t;

    /** An empty index cell, and the end of the recency list. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** One resident page and its recency-list links. */
    struct Slot
    {
        PageNum page;
        std::uint32_t prev; ///< more recently used
        std::uint32_t next; ///< less recently used
    };

    unsigned numEntries;
    std::uint32_t used = 0;
    std::uint32_t head = none;
    std::uint32_t tail = none;
    unsigned hashShift;    ///< 64 - log2(index size)
    std::size_t indexMask; ///< index size - 1
    /**
     * numEntries slots; [0, used) are resident. A slot is written when
     * it is first taken, so construction leaves them uninitialized.
     */
    std::unique_ptr<Slot[]> slots;
    std::vector<std::uint32_t> index; ///< slot numbers, or none

    static PageNum pageOf(sim::Addr addr) { return addr >> pageShift; }

    /** @return the index cell @p page's probe sequence starts at. */
    std::size_t
    home(PageNum page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9E3779B97F4A7C15ull) >> hashShift);
    }

    /** @return @p page's slot, or none if it is not resident. */
    std::uint32_t find(PageNum page) const;

    /** Miss path: install @p page at the head, evicting the tail. */
    bool walk(PageNum page);

    /** Remove @p page (resident) from the index by backward shift. */
    void erase(PageNum page);
};

// The hit path lives in the header so that cpu::Core inlines it.

inline std::uint32_t
Tlb::find(PageNum page) const
{
    for (std::size_t i = home(page);; i = (i + 1) & indexMask) {
        const std::uint32_t s = index[i];
        if (s == none || slots[s].page == page)
            return s;
    }
}

inline bool
Tlb::access(sim::Addr addr)
{
    const PageNum page = pageOf(addr);
    const std::uint32_t s = find(page);
    if (s == none)
        return walk(page);
    ++hits;
    if (s != head) {
        // Unlink: s is not the head, so it has a predecessor.
        Slot &e = slots[s];
        slots[e.prev].next = e.next;
        if (e.next != none)
            slots[e.next].prev = e.prev;
        else
            tail = e.prev;
        e.prev = none;
        e.next = head;
        slots[head].prev = s;
        head = s;
    }
    return true;
}

inline bool
Tlb::resident(sim::Addr addr) const
{
    return find(pageOf(addr)) != none;
}

} // namespace na::mem

#endif // NETAFFINITY_MEM_TLB_HH
