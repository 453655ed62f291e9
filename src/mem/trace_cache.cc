#include "src/mem/trace_cache.hh"

#include "src/sim/logging.hh"

namespace na::mem {

TraceCache::TraceCache(stats::Group *parent, const std::string &name,
                       std::uint64_t capacity_bytes, std::size_t num_funcs)
    : stats::Group(parent, name),
      hits(this, "hits", "trace cache hits"),
      misses(this, "misses", "trace lines rebuilt"),
      capacity(capacity_bytes), slots(num_funcs)
{
}

void
TraceCache::badFuncId(std::uint16_t func_id) const
{
    sim::panic("trace cache %s: function id %u out of range (%zu ids)",
               groupName().c_str(), unsigned{func_id}, slots.size());
}

unsigned
TraceCache::build(Slot &slot, std::uint32_t footprint_bytes)
{
    const unsigned lines =
        static_cast<unsigned>((footprint_bytes + 63) / 64);
    misses += lines;

    // A single function larger than the whole cache: permanent
    // streaming misses, never resident.
    if (footprint_bytes > capacity)
        return lines;

    // Evict least-recently-executed traces until it fits. While it
    // does not, used > 0, so some slot is resident and victim is set.
    while (used + footprint_bytes > capacity) {
        Slot *victim = nullptr;
        for (Slot &s : slots) {
            if (s.stamp != 0 && (!victim || s.stamp < victim->stamp))
                victim = &s;
        }
        used -= victim->bytes;
        *victim = Slot{};
    }

    slot.stamp = ++clock;
    slot.bytes = footprint_bytes;
    used += footprint_bytes;
    return lines;
}

bool
TraceCache::resident(std::uint16_t func_id) const
{
    return const_cast<TraceCache *>(this)->slotOf(func_id).stamp != 0;
}

} // namespace na::mem
