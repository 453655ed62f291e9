/**
 * @file
 * Simulated physical address space layout and allocation.
 *
 * The simulator does not store data, only addresses: every kernel object
 * (socket structs, skbuffs, descriptor rings, user buffers, code) lives
 * at a distinct simulated address so the cache and TLB models see a
 * realistic footprint. Allocation is a simple bump allocator per region;
 * slab-style reuse is implemented above this layer (net::SkbPool).
 */

#ifndef NETAFFINITY_MEM_ADDR_ALLOC_HH
#define NETAFFINITY_MEM_ADDR_ALLOC_HH

#include <cstdint>

#include "src/sim/types.hh"

namespace na::mem {

/** Disjoint regions of the simulated physical address space. */
enum class Region : std::uint8_t
{
    KernelText,  ///< kernel code (functions' ITLB/TC footprint)
    KernelData,  ///< sockets, TCP control blocks, queues
    SkbSlab,     ///< skbuff structs + packet data buffers
    NicRings,    ///< RX/TX descriptor rings
    UserText,    ///< application code
    UserData,    ///< per-task user buffers
    Mmio,        ///< device registers (always uncacheable)
    NumRegions
};

/**
 * Carves the address space into fixed 1 GiB regions and bump-allocates
 * within each. Returned blocks are cache-line aligned.
 */
class AddressAllocator
{
  public:
    static constexpr sim::Addr regionSize = 1ULL << 30;
    static constexpr sim::Addr lineSize = 64;

    AddressAllocator();

    /**
     * Allocate @p bytes in @p region, rounded up to whole cache lines.
     * @return base address of the block.
     */
    sim::Addr alloc(Region region, std::uint64_t bytes);

    /** @return base address of a region. */
    static sim::Addr regionBase(Region region);

    /** @return the region an address belongs to. */
    static Region
    regionOf(sim::Addr addr)
    {
        const sim::Addr idx = addr / regionSize;
        if (idx >= static_cast<sim::Addr>(Region::NumRegions)) [[unlikely]]
            outsideAllRegions(addr);
        return static_cast<Region>(idx);
    }

    /** @return true if accesses to this address bypass the caches. */
    static bool
    isUncacheable(sim::Addr addr)
    {
        return regionOf(addr) == Region::Mmio;
    }

    /** @return bytes allocated so far in @p region. */
    std::uint64_t allocated(Region region) const;

  private:
    std::uint64_t cursor[static_cast<int>(Region::NumRegions)];

    /** Panic: @p addr lies beyond the last region. */
    [[noreturn]] static void outsideAllRegions(sim::Addr addr);
};

} // namespace na::mem

#endif // NETAFFINITY_MEM_ADDR_ALLOC_HH
