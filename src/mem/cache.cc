#include "src/mem/cache.hh"

#include <algorithm>
#include <bit>

#include "src/sim/logging.hh"

namespace na::mem {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(stats::Group *parent, const std::string &name,
             std::uint64_t size_bytes, unsigned assoc_ways,
             unsigned line_bytes)
    : stats::Group(parent, name),
      hits(this, "hits", "lookups that hit"),
      misses(this, "misses", "lookups that missed"),
      evictions(this, "evictions", "lines displaced by fills"),
      writebacks(this, "writebacks", "dirty lines displaced"),
      snoopInvalidations(this, "snoop_invalidations",
                         "lines invalidated by remote writes"),
      lineSize(line_bytes), assoc(assoc_ways)
{
    // Bit 0 of a line address must be free for the valid-tag encoding.
    if (!isPow2(line_bytes) || line_bytes < 2)
        sim::fatal("cache line size %u not a power of two >= 2",
                   line_bytes);
    if (assoc_ways == 0 ||
        size_bytes % (static_cast<std::uint64_t>(assoc_ways) * line_bytes))
        sim::fatal("cache size %llu not divisible by assoc*line",
                   (unsigned long long)size_bytes);
    numSets = static_cast<unsigned>(
        size_bytes / (static_cast<std::uint64_t>(assoc_ways) * line_bytes));
    if (!isPow2(numSets))
        sim::fatal("cache set count %u not a power of two", numSets);
    lineShift = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    setMask = numSets - 1;
    lines.resize(static_cast<std::size_t>(numSets) * assoc);
}

void
Cache::setModified(sim::Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        sim::panic("setModified on absent line %llx",
                   (unsigned long long)addr);
    line->state = LineState::Modified;
}

std::uint64_t
Cache::validLines() const
{
    return static_cast<std::uint64_t>(
        std::count_if(lines.begin(), lines.end(),
                      [](const Line &line) { return line.tag != 0; }));
}

} // namespace na::mem
