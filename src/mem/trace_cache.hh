/**
 * @file
 * A function-granularity trace cache (decoded-uop cache) model.
 *
 * The Pentium 4 caches decoded uop traces rather than raw instruction
 * bytes. We approximate it as an LRU cache of *function footprints*:
 * executing a function whose footprint is resident is a hit; otherwise
 * the footprint is (re)built, evicting least-recently-executed functions
 * until it fits. This captures the first-order behaviour the paper's TC
 * miss event measures: code working-set churn from migrations and
 * interrupt intrusions.
 */

#ifndef NETAFFINITY_MEM_TRACE_CACHE_HH
#define NETAFFINITY_MEM_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/stats.hh"

namespace na::mem {

/** LRU footprint cache for decoded code traces, one slot per function. */
class TraceCache : public stats::Group
{
  public:
    /**
     * @param capacity_bytes total uop storage expressed as equivalent
     *        x86 code bytes (12k uops ~= 48-96 KiB of code; see
     *        cpu::PlatformConfig).
     * @param num_funcs number of function ids; access() and resident()
     *        panic on an id >= this.
     */
    TraceCache(stats::Group *parent, const std::string &name,
               std::uint64_t capacity_bytes, std::size_t num_funcs);

    /**
     * Execute function @p func_id whose decoded footprint is
     * @p footprint_bytes.
     * @return number of *misses* incurred: 0 on a resident hit, else the
     *         number of trace-line (64B) builds needed.
     */
    unsigned
    access(std::uint16_t func_id, std::uint32_t footprint_bytes)
    {
        Slot &slot = slotOf(func_id);
        if (slot.stamp != 0) {
            ++hits;
            slot.stamp = ++clock;
            return 0;
        }
        return build(slot, footprint_bytes);
    }

    /** @return true if the function's trace is resident. */
    bool resident(std::uint16_t func_id) const;

    std::uint64_t usedBytes() const { return used; }

    stats::Scalar hits;
    stats::Scalar misses; ///< trace-line builds

  private:
    /** One function's trace. Stamp 0 means absent. */
    struct Slot
    {
        std::uint64_t stamp = 0; ///< larger == more recently executed
        std::uint32_t bytes = 0; ///< resident footprint
    };

    std::uint64_t capacity;
    std::uint64_t used = 0;
    std::uint64_t clock = 0;
    std::vector<Slot> slots; ///< indexed by function id

    Slot &
    slotOf(std::uint16_t func_id)
    {
        if (func_id >= slots.size()) [[unlikely]]
            badFuncId(func_id);
        return slots[func_id];
    }

    [[noreturn]] void badFuncId(std::uint16_t func_id) const;

    /** Miss path: evict LRU traces until @p footprint_bytes fits. */
    unsigned build(Slot &slot, std::uint32_t footprint_bytes);
};

} // namespace na::mem

#endif // NETAFFINITY_MEM_TRACE_CACHE_HH
