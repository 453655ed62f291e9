#include "src/mem/hierarchy.hh"

#include <algorithm>
#include <cmath>

#include "src/sim/logging.hh"

namespace na::mem {

CacheHierarchy::CacheHierarchy(stats::Group *parent,
                               const std::string &name, sim::CpuId cpu_id,
                               const CacheGeometry &geom,
                               SnoopDomain &snoop_domain)
    : stats::Group(parent, name),
      l1(this, "l1d", geom.l1Size, geom.l1Assoc, geom.lineBytes),
      l2(this, "l2", geom.l2Size, geom.l2Assoc, geom.lineBytes),
      l3(this, "l3", geom.l3Size, geom.l3Assoc, geom.lineBytes),
      accesses(this, "accesses", "CPU accesses"),
      stallCycleTotal(this, "stall_cycles", "memory stall cycles"),
      linesStolenByRemote(this, "lines_stolen",
                          "lines invalidated by remote writers/DMA"),
      cpu(cpu_id), domain(snoop_domain), timing(snoop_domain.memTiming())
{
    domain.addHierarchy(this);
}

void
CacheHierarchy::fillInner(sim::Addr line_addr, LineState state)
{
    const Cache::Victim v2 = l2.fill(line_addr, state);
    if (v2.valid)
        l1.invalidate(v2.lineAddr);
    l1.fill(line_addr, state);
}

LineState
CacheHierarchy::invalidateInner(sim::Addr line_addr)
{
    const LineState p2 = l2.invalidate(line_addr);
    if (p2 == LineState::Invalid)
        return p2;
    return std::max(p2, l1.invalidate(line_addr));
}

void
CacheHierarchy::upgradeLine(sim::Addr line_addr)
{
    // Inclusion (L1 ⊆ L2 ⊆ L3) means the outer levels are guaranteed
    // present once an inner level hits, so each level is walked once
    // instead of the probe+setModified double walk.
    if (l1.setModifiedIfPresent(line_addr)) {
        l2.setModified(line_addr);
        l3.setModified(line_addr);
    } else if (l2.setModifiedIfPresent(line_addr)) {
        l3.setModified(line_addr);
    } else {
        l3.setModifiedIfPresent(line_addr);
    }
}

AccessResult
CacheHierarchy::access(sim::Addr addr, std::uint32_t bytes, bool write,
                       double overlap)
{
    AccessResult res;
    if (bytes == 0)
        return res;
    if (overlap <= 0.0 || overlap > 1.0)
        sim::panic("access overlap factor %f out of (0,1]", overlap);

    const unsigned line = lineBytes();
    const sim::Addr first = addr / line * line;
    const sim::Addr last = (addr + bytes - 1) / line * line;

    if (AddressAllocator::isUncacheable(addr)) {
        // Device registers: every access goes to the bus, serialized.
        const std::uint32_t n =
            static_cast<std::uint32_t>((last - first) / line + 1);
        res.uncached = n;
        res.lines = n;
        res.stallCycles =
            static_cast<std::uint64_t>(n) *
            (write ? timing.uncachedWriteCycles : timing.uncachedCycles);
        ++accesses;
        stallCycleTotal += static_cast<double>(res.stallCycles);
        return res;
    }

    double stall = 0.0;
    for (sim::Addr la = first; la <= last; la += line) {
        ++res.lines;
        const LineState s1 = l1.lookup(la);
        if (s1 != LineState::Invalid) {
            ++res.l1Hits;
            stall += timing.l1HitCycles;
            if (write && s1 == LineState::Shared) {
                // Ownership upgrade: invalidate remote copies.
                domain.snoopWrite(cpu, la, res.stolenFrom);
                upgradeLine(la);
                ++res.upgrades;
                stall += timing.upgradeCycles;
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
            stall += timing.l2HitCycles * overlap;
            if (write && s2 == LineState::Shared) {
                domain.snoopWrite(cpu, la, res.stolenFrom);
                l2.setModified(la);
                ++res.upgrades;
                stall += timing.upgradeCycles;
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
            stall += timing.l3HitCycles * overlap;
            if (write && r3.prev == LineState::Shared) {
                domain.snoopWrite(cpu, la, res.stolenFrom);
                ++res.upgrades;
                stall += timing.upgradeCycles;
            }
            // A read of a dirty L3 line fills the inner levels
            // Modified: every level holding a line holds it alike.
            fillInner(la, write ? LineState::Modified : r3.prev);
            continue;
        }

        // Full local miss: back-invalidate the L3 victim to preserve
        // inclusion, snoop the other CPUs, then fill the inner levels.
        ++res.llcMisses;
        if (r3.victim.valid)
            invalidateInner(r3.victim.lineAddr);
        LineState remote;
        if (write) {
            remote = domain.snoopWrite(cpu, la, res.stolenFrom);
        } else {
            remote = domain.snoopRead(cpu, la);
        }
        if (remote != LineState::Invalid) {
            ++res.remoteHits;
            stall += timing.c2cCycles * overlap;
        } else {
            stall += timing.memCycles * overlap;
        }
        // Read fill is Shared (MSI; no E state — see DESIGN.md).
        fillInner(la, write ? LineState::Modified : LineState::Shared);
    }

    res.stallCycles = static_cast<std::uint64_t>(std::llround(stall));
    ++accesses;
    stallCycleTotal += static_cast<double>(res.stallCycles);
    return res;
}

LineState
CacheHierarchy::probeLine(sim::Addr addr) const
{
    return l3.probe(addr);
}

bool
CacheHierarchy::present(sim::Addr addr) const
{
    return l3.probe(addr) != LineState::Invalid ||
           l2.probe(addr) != LineState::Invalid ||
           l1.probe(addr) != LineState::Invalid;
}

LineState
CacheHierarchy::snoopInvalidate(sim::Addr addr)
{
    // Inclusion: a line absent from L3 is absent everywhere, and one
    // absent from L2 is absent from L1, so each level is visited only if
    // the next outer one held the line. Invalidating an absent line
    // bumps no counter, so the skipped visits are only saved work.
    const LineState p3 = l3.invalidate(addr);
    if (p3 == LineState::Invalid)
        return LineState::Invalid;
    ++linesStolenByRemote;
    return std::max(p3, invalidateInner(addr));
}

bool
CacheHierarchy::snoopDowngrade(sim::Addr addr)
{
    // Same inclusion order; downgrading an absent line is a no-op.
    if (!l3.downgrade(addr))
        return false;
    if (l2.downgrade(addr))
        l1.downgrade(addr);
    return true;
}

void
CacheHierarchy::flushAll()
{
    l1.flushAll();
    l2.flushAll();
    l3.flushAll();
}

SnoopDomain::SnoopDomain(const MemTiming &timing_params)
    : timing(timing_params)
{
}

void
SnoopDomain::addHierarchy(CacheHierarchy *h)
{
    if (h->cpuId() != static_cast<sim::CpuId>(all.size()))
        sim::fatal("hierarchies must be added in CPU-id order");
    if (all.size() >= maxSmpCpus)
        sim::fatal("too many CPUs in snoop domain");
    lineSize = h->lineBytes();
    all.push_back(h);
}

LineState
SnoopDomain::snoopWrite(sim::CpuId requester, sim::Addr line_addr,
                        std::array<std::uint32_t, maxSmpCpus> &stolen_from)
{
    LineState found = LineState::Invalid;
    for (CacheHierarchy *h : all) {
        if (h->cpuId() == requester)
            continue;
        const LineState prev = h->snoopInvalidate(line_addr);
        if (prev != LineState::Invalid) {
            stolen_from[static_cast<std::size_t>(h->cpuId())] += 1;
            if (prev == LineState::Modified ||
                found == LineState::Invalid) {
                found = prev;
            }
        }
    }
    return found;
}

LineState
SnoopDomain::snoopRead(sim::CpuId requester, sim::Addr line_addr)
{
    LineState found = LineState::Invalid;
    for (CacheHierarchy *h : all) {
        if (h->cpuId() == requester)
            continue;
        const LineState state = h->probeLine(line_addr);
        if (state == LineState::Modified) {
            h->snoopDowngrade(line_addr);
            return LineState::Modified;
        }
        if (state != LineState::Invalid)
            found = LineState::Shared;
    }
    return found;
}

DmaResult
SnoopDomain::dmaWrite(sim::Addr addr, std::uint32_t bytes)
{
    DmaResult res;
    if (bytes == 0)
        return res;
    const sim::Addr first = addr / lineSize * lineSize;
    const sim::Addr last = (addr + bytes - 1) / lineSize * lineSize;
    for (sim::Addr la = first; la <= last; la += lineSize) {
        ++res.lines;
        for (CacheHierarchy *h : all) {
            if (h->snoopInvalidate(la) != LineState::Invalid)
                res.stolenFrom[static_cast<std::size_t>(h->cpuId())] += 1;
        }
    }
    return res;
}

DmaResult
SnoopDomain::dmaRead(sim::Addr addr, std::uint32_t bytes)
{
    DmaResult res;
    if (bytes == 0)
        return res;
    const sim::Addr first = addr / lineSize * lineSize;
    const sim::Addr last = (addr + bytes - 1) / lineSize * lineSize;
    for (sim::Addr la = first; la <= last; la += lineSize) {
        ++res.lines;
        for (CacheHierarchy *h : all) {
            if (timing.dmaReadInvalidates) {
                if (h->snoopInvalidate(la) != LineState::Invalid) {
                    res.stolenFrom[static_cast<std::size_t>(
                        h->cpuId())] += 1;
                }
            } else {
                h->snoopDowngrade(la);
            }
        }
    }
    return res;
}

} // namespace na::mem
