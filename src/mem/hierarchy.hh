/**
 * @file
 * Per-CPU three-level cache hierarchy plus the SMP snoop domain.
 *
 * This is where processor affinity physically matters: lines written by
 * one CPU (softirq half of the stack) and read by another (process half)
 * ping-pong across the bus as cache-to-cache transfers, and every remote
 * write *steals* lines from the victim CPU — the event the cpu model may
 * turn into a P4-style memory-ordering machine clear.
 */

#ifndef NETAFFINITY_MEM_HIERARCHY_HH
#define NETAFFINITY_MEM_HIERARCHY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/addr_alloc.hh"
#include "src/mem/cache.hh"
#include "src/sim/logging.hh"
#include "src/sim/round.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::mem {

/** Maximum CPUs in one snoop domain (the paper uses 2, we allow 8). */
constexpr int maxSmpCpus = 8;

/** Latency constants (cycles) of the modeled memory system. */
struct MemTiming
{
    static constexpr unsigned l1HitCycles = 0; ///< folded into base CPI
    static constexpr unsigned l2HitCycles = 18; ///< L1 miss, L2 hit
    static constexpr unsigned l3HitCycles = 45; ///< L2 miss, L3 hit
    static constexpr unsigned memCycles = 300; ///< full miss to DRAM
    static constexpr unsigned c2cCycles = 350; ///< FSB cache-to-cache
    static constexpr unsigned upgradeCycles = 30; ///< Shared->Modified
    static constexpr unsigned uncachedCycles = 600; ///< MMIO read (stalls)
    static constexpr unsigned uncachedWriteCycles = 150; ///< MMIO write
};

/** Geometry of one CPU's caches (Xeon MP defaults). */
struct CacheGeometry
{
    std::uint64_t l1Size = 8 * 1024;
    unsigned l1Assoc = 4;
    std::uint64_t l2Size = 512 * 1024;
    unsigned l2Assoc = 8;
    std::uint64_t l3Size = 2 * 1024 * 1024;
    unsigned l3Assoc = 8;
    unsigned lineBytes = 64;
};

/**
 * Counts of one CPU access (possibly spanning many lines), or the sum
 * over several: CacheHierarchy::accessInto adds into one.
 */
struct AccessResult
{
    std::uint32_t lines = 0;       ///< cache lines touched
    std::uint32_t l1Hits = 0;
    std::uint32_t l2Hits = 0;      ///< L1 miss, L2 hit
    std::uint32_t l3Hits = 0;      ///< L2 miss, local L3 hit
    std::uint32_t l2Misses = 0;    ///< missed L2 (paper's "L2 miss")
    std::uint32_t llcMisses = 0;   ///< missed local L3 entirely
    std::uint32_t remoteHits = 0;  ///< LLC misses served cache-to-cache
    std::uint32_t upgrades = 0;    ///< Shared->Modified transitions
    std::uint32_t uncached = 0;    ///< uncacheable (MMIO) accesses
    /** Timing penalty, overlap applied, rounded once per access. */
    std::uint64_t stallCycles = 0;
    /** Per-CPU count of lines this access stole (invalidated). */
    std::array<std::uint32_t, maxSmpCpus> stolenFrom{};

    /** @return true if any remote CPU lost a line to this access. */
    bool
    stoleAny() const
    {
        for (auto v : stolenFrom)
            if (v)
                return true;
        return false;
    }
};

/** Outcome of a DMA transaction (device-side memory access). */
struct DmaResult
{
    std::uint32_t lines = 0;
    /** Lines invalidated out of each CPU's caches. */
    std::array<std::uint32_t, maxSmpCpus> stolenFrom{};
};

class SnoopDomain;

/**
 * One CPU's private L1D/L2/L3 stack.
 *
 * All timing/counting flows through access(); coherence actions reach
 * other hierarchies through the owning SnoopDomain.
 */
class CacheHierarchy : public stats::Group
{
  public:
    CacheHierarchy(stats::Group *parent, const std::string &name,
                   sim::CpuId cpu, const CacheGeometry &geom,
                   SnoopDomain &domain);

    /**
     * Perform a CPU access of @p bytes at @p addr and add its counts
     * into @p tally. This is the one per-line walk; it is forced inline
     * so that Core::charge runs its touches without a call or a
     * per-touch result.
     *
     * @param write true for stores
     * @param overlap miss-penalty scale factor in (0,1]; streaming
     *        copies use < 1 to model prefetch/MLP overlap
     */
    [[gnu::always_inline]] inline void
    accessInto(sim::Addr addr, std::uint32_t bytes, bool write,
               double overlap, AccessResult &tally);

    /** accessInto() for one access: @return its counts alone. */
    AccessResult
    access(sim::Addr addr, std::uint32_t bytes, bool write,
           double overlap = 1.0)
    {
        AccessResult res;
        accessInto(addr, bytes, write, overlap, res);
        return res;
    }

    /** @return coherence state of a line in this hierarchy (probe L3). */
    LineState probeLine(sim::Addr addr) const;

    /**
     * Snoop filter: @return false only if no valid L3 line lies in a
     * region that shares @p addr's slot, so by inclusion the line is in
     * no level here. True means "probe the sets to find out".
     */
    bool
    mayHold(sim::Addr addr) const
    {
        return regionLines[slotOf(addr)] != 0;
    }

    /** @return true if the line is present anywhere in this hierarchy. */
    bool present(sim::Addr addr) const;

    /** Invalidate a line at every level (remote write / DMA write). */
    LineState snoopInvalidate(sim::Addr addr);

    /** Downgrade a line to Shared at every level (remote read). */
    bool snoopDowngrade(sim::Addr addr);

    sim::CpuId cpuId() const { return cpu; }
    unsigned lineBytes() const { return l1.lineBytes(); }

    Cache l1;
    Cache l2;
    Cache l3;

    /** @name Statistics @{ */
    stats::Scalar accesses;
    stats::Scalar stallCycleTotal;
    stats::Scalar linesStolenByRemote; ///< lines lost to remote writers
    /** @} */

  private:
    /** The filter counts lines per 512-byte region... */
    static constexpr unsigned regionShift = 9;
    /** ...in 16384 slots, so the index spans address bits 9-22 (8 MiB). */
    static constexpr std::size_t regionSlots = 16384;

    static std::size_t
    slotOf(sim::Addr addr)
    {
        return static_cast<std::size_t>(addr >> regionShift) &
               (regionSlots - 1);
    }

    sim::CpuId cpu;
    SnoopDomain &domain;

    /**
     * Valid L3 lines per filter slot. Only the two places where L3
     * validity changes move a count: a full miss in accessInto (fill,
     * and its valid victim) and a snoopInvalidate that finds the line.
     * The constructor proves no count can exceed 255.
     */
    std::array<std::uint8_t, regionSlots> regionLines{};

    /**
     * Fill a line absent from L2 (and so from L1) into L2 and L1; L3
     * already holds it.
     */
    void fillInner(sim::Addr line_addr, LineState state);

    /**
     * Invalidate a line in L2, and in L1 only if L2 held it (inclusion).
     * @return the worse of the two previous states.
     */
    LineState invalidateInner(sim::Addr line_addr);

    /** Upgrade a line that hit in L1 to Modified at every level. */
    void upgradeLine(sim::Addr line_addr);
};

/**
 * The coherence fabric connecting all CPU hierarchies. Also the home of
 * DMA transactions, which are coherent on the modeled platform (FSB
 * snooping chipset).
 */
class SnoopDomain
{
  public:
    /** Register a hierarchy (called by CacheHierarchy's constructor). */
    void addHierarchy(CacheHierarchy *h);

    /**
     * Remote-write snoop: invalidate @p line_addr in every hierarchy
     * except @p requester.
     * @param[out] stolen_from incremented per victim CPU
     * @return Modified if some remote cache owned the line dirty,
     *         Shared if remote copies existed clean, else Invalid.
     */
    LineState snoopWrite(sim::CpuId requester, sim::Addr line_addr,
                         std::array<std::uint32_t, maxSmpCpus>
                             &stolen_from);

    /**
     * Remote-read snoop: downgrade remote Modified copies.
     * @return state the line was found in remotely (Invalid if nowhere).
     */
    LineState snoopRead(sim::CpuId requester, sim::Addr line_addr);

    /**
     * Device reads or writes memory (TX or RX DMA): invalidates every
     * cached copy. The modeled ServerWorks-era chipset invalidates on
     * DMA *reads* as well as writes (simpler snoop filters), so
     * transmitted payload buffers come back cold when the slab recycles
     * them, on every CPU alike.
     */
    DmaResult dma(sim::Addr addr, std::uint32_t bytes);

    unsigned lineBytes() const { return lineSize; }

    const std::vector<CacheHierarchy *> &hierarchies() const
    {
        return all;
    }

  private:
    unsigned lineSize = 64;
    std::vector<CacheHierarchy *> all;
};

// The per-line walk lives in the header so Core::charge inlines it.

inline void
CacheHierarchy::accessInto(sim::Addr addr, std::uint32_t bytes, bool write,
                           double overlap, AccessResult &res)
{
    if (bytes == 0)
        return;
    if (overlap <= 0.0 || overlap > 1.0)
        sim::panic("access overlap factor %f out of (0,1]", overlap);

    const unsigned line = lineBytes();
    const sim::Addr first = addr / line * line;
    const sim::Addr last = (addr + bytes - 1) / line * line;

    if (AddressAllocator::isUncacheable(addr)) {
        // Device registers: every access goes to the bus, serialized.
        const std::uint32_t n =
            static_cast<std::uint32_t>((last - first) / line + 1);
        const std::uint64_t stall =
            static_cast<std::uint64_t>(n) *
            (write ? MemTiming::uncachedWriteCycles
                   : MemTiming::uncachedCycles);
        res.uncached += n;
        res.lines += n;
        res.stallCycles += stall;
        ++accesses;
        stallCycleTotal += static_cast<double>(stall);
        return;
    }

    double stall = 0.0;
    for (sim::Addr la = first; la <= last; la += line) {
        ++res.lines;
        const LineState s1 = l1.lookup(la);
        if (s1 != LineState::Invalid) {
            ++res.l1Hits;
            stall += MemTiming::l1HitCycles;
            if (write && s1 == LineState::Shared) {
                // Ownership upgrade: invalidate remote copies.
                domain.snoopWrite(cpu, la, res.stolenFrom);
                upgradeLine(la);
                ++res.upgrades;
                stall += MemTiming::upgradeCycles;
            }
            // A write hitting Modified needs no upgrade anywhere:
            // every level holding a line holds it in the same state
            // (fills, upgrades, downgrades, and invalidations all
            // apply level-uniformly), so L2/L3 are Modified too.
            continue;
        }

        const LineState s2 = l2.lookup(la);
        if (s2 != LineState::Invalid) {
            ++res.l2Hits;
            stall += MemTiming::l2HitCycles * overlap;
            if (write && s2 == LineState::Shared) {
                domain.snoopWrite(cpu, la, res.stolenFrom);
                l2.setModified(la);
                ++res.upgrades;
                stall += MemTiming::upgradeCycles;
            }
            // Inclusion: L3 holds the line and L1 does not. The lookup
            // above already made it L2's MRU line, and one touch makes
            // it L3's; only relative LRU order is observable.
            const LineState s = write ? LineState::Modified : s2;
            Cache::Line *line3 = l3.findLine(la);
            if (!line3)
                sim::panic("L2 hit on line %llx absent from L3",
                           (unsigned long long)la);
            l3.touch(*line3, s);
            l1.fill(la, s);
            continue;
        }

        // L2 miss: one walk of the L3 set both classifies the access
        // (hit vs full miss) and performs the fill. Snoops never touch
        // the local hierarchy, so filling L3 before the snoop below
        // commutes with the old lookup-snoop-insert order.
        ++res.l2Misses;
        const auto r3 = l3.findOrInsert(
            la, write ? LineState::Modified : LineState::Shared);
        if (r3.hit()) {
            ++res.l3Hits;
            stall += MemTiming::l3HitCycles * overlap;
            if (write && r3.prev == LineState::Shared) {
                domain.snoopWrite(cpu, la, res.stolenFrom);
                ++res.upgrades;
                stall += MemTiming::upgradeCycles;
            }
            // A read of a dirty L3 line fills the inner levels
            // Modified: every level holding a line holds it alike.
            fillInner(la, write ? LineState::Modified : r3.prev);
            continue;
        }

        // Full local miss: back-invalidate the L3 victim to preserve
        // inclusion, snoop the other CPUs, then fill the inner levels.
        ++res.llcMisses;
        if (r3.victim.valid) {
            --regionLines[slotOf(r3.victim.lineAddr)];
            invalidateInner(r3.victim.lineAddr);
        }
        ++regionLines[slotOf(la)];
        LineState remote;
        if (write) {
            remote = domain.snoopWrite(cpu, la, res.stolenFrom);
        } else {
            remote = domain.snoopRead(cpu, la);
        }
        if (remote != LineState::Invalid) {
            ++res.remoteHits;
            stall += MemTiming::c2cCycles * overlap;
        } else {
            stall += MemTiming::memCycles * overlap;
        }
        // Read fill is Shared (MSI; no E state — see DESIGN.md).
        fillInner(la, write ? LineState::Modified : LineState::Shared);
    }

    const std::uint64_t stall_cycles = sim::roundHalfUp(stall);
    res.stallCycles += stall_cycles;
    ++accesses;
    stallCycleTotal += static_cast<double>(stall_cycles);
}

} // namespace na::mem

#endif // NETAFFINITY_MEM_HIERARCHY_HH
