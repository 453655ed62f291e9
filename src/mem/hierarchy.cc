#include "src/mem/hierarchy.hh"

#include <algorithm>
#include <limits>

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
      cpu(cpu_id), domain(snoop_domain)
{
    // Lines that share a filter slot agree on address bits 9-22. If L3's
    // set index lies within bits 0-22, those lines fall in at most
    // max(1, 512 / lineBytes) sets, so a slot counts at most that many
    // sets' ways and a uint8_t count cannot wrap.
    const std::uint64_t set_span = std::uint64_t{l3.sets()} * l3.lineBytes();
    if (set_span > (std::uint64_t{regionSlots} << regionShift))
        sim::fatal("L3 set index spans %llu bytes, beyond the snoop "
                   "filter's %llu",
                   (unsigned long long)set_span,
                   (unsigned long long)(regionSlots << regionShift));
    const std::uint64_t max_lines =
        std::uint64_t{l3.associativity()} *
        std::max(1u, (1u << regionShift) / l3.lineBytes());
    if (max_lines > std::numeric_limits<std::uint8_t>::max())
        sim::fatal("snoop filter slot may count %llu L3 lines, over 255",
                   (unsigned long long)max_lines);
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
    // Inclusion (L1 ⊆ L2 ⊆ L3): a line that hit in L1 is in L2 and L3.
    l1.setModified(line_addr);
    l2.setModified(line_addr);
    l3.setModified(line_addr);
}

LineState
CacheHierarchy::probeLine(sim::Addr addr) const
{
    return mayHold(addr) ? l3.probe(addr) : LineState::Invalid;
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
    // bumps no counter, so the skipped visits are only saved work. The
    // filter skips L3 too when no line of the slot is valid there.
    if (!mayHold(addr))
        return LineState::Invalid;
    const LineState p3 = l3.invalidate(addr);
    if (p3 == LineState::Invalid)
        return LineState::Invalid;
    --regionLines[slotOf(addr)];
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
SnoopDomain::dma(sim::Addr addr, std::uint32_t bytes)
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

} // namespace na::mem
