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

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::mem {

/** Fully-associative LRU TLB (used for both ITLB and DTLB). */
class Tlb : public stats::Group
{
  public:
    static constexpr unsigned pageShift = 12; ///< 4 KiB pages

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
    std::uint64_t size() const { return map.size(); }

    stats::Scalar hits;
    stats::Scalar walks;

  private:
    using PageNum = std::uint64_t;
    using LruList = std::list<PageNum>;

    unsigned numEntries;
    LruList lru; ///< front == most recent
    std::unordered_map<PageNum, LruList::iterator> map;

    static PageNum pageOf(sim::Addr addr) { return addr >> pageShift; }
};

} // namespace na::mem

#endif // NETAFFINITY_MEM_TLB_HH
