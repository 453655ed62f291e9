#include "src/mem/addr_alloc.hh"

#include "src/sim/logging.hh"

namespace na::mem {

AddressAllocator::AddressAllocator()
{
    for (auto &c : cursor)
        c = 0;
}

sim::Addr
AddressAllocator::regionBase(Region region)
{
    return static_cast<sim::Addr>(region) * regionSize;
}

void
AddressAllocator::outsideAllRegions(sim::Addr addr)
{
    sim::panic("address %llx outside all regions",
               (unsigned long long)addr);
}

sim::Addr
AddressAllocator::alloc(Region region, std::uint64_t bytes)
{
    const int idx = static_cast<int>(region);
    // Round to whole cache lines so distinct objects never share a line
    // (the simulator has no false-sharing model; see DESIGN.md).
    const std::uint64_t rounded =
        (bytes + lineSize - 1) / lineSize * lineSize;
    std::uint64_t &cur = cursor[idx];
    if (cur + rounded > regionSize)
        sim::fatal("region %d exhausted (%llu + %llu bytes)", idx,
                   (unsigned long long)cur, (unsigned long long)rounded);
    const sim::Addr base = regionBase(region) + cur;
    cur += rounded;
    return base;
}

std::uint64_t
AddressAllocator::allocated(Region region) const
{
    return cursor[static_cast<int>(region)];
}

} // namespace na::mem
