#include "src/mem/tlb.hh"

#include <bit>

#include "src/sim/logging.hh"

namespace na::mem {

Tlb::Tlb(stats::Group *parent, const std::string &name, unsigned entries)
    : stats::Group(parent, name),
      hits(this, "hits", "TLB hits"),
      walks(this, "walks", "page walks (misses)"),
      numEntries(entries)
{
    if (entries == 0)
        sim::fatal("TLB %s needs at least one entry", name.c_str());
    if (entries > maxEntries)
        sim::fatal("TLB %s has %u entries, more than %u", name.c_str(),
                   entries, maxEntries);
    const std::size_t cells = std::bit_ceil(std::size_t{4} * entries);
    hashShift = 64 - static_cast<unsigned>(std::countr_zero(cells));
    indexMask = cells - 1;
    slots = std::make_unique_for_overwrite<Slot[]>(entries);
    index.assign(cells, none);
}

bool
Tlb::walk(PageNum page)
{
    ++walks;
    std::uint32_t s = tail;
    if (used < numEntries) {
        s = used++;
    } else {
        tail = slots[s].prev;
        if (tail != none)
            slots[tail].next = none;
        else
            head = none;
        erase(slots[s].page);
    }

    std::size_t i = home(page);
    while (index[i] != none)
        i = (i + 1) & indexMask;
    index[i] = s;

    slots[s] = Slot{page, none, head};
    if (head != none)
        slots[head].prev = s;
    else
        tail = s;
    head = s;
    return false;
}

void
Tlb::erase(PageNum page)
{
    std::size_t hole = home(page);
    while (slots[index[hole]].page != page)
        hole = (hole + 1) & indexMask;

    // Walk the rest of the cluster; move back every entry whose probe
    // sequence passes through the hole, leaving the hole at the end.
    for (std::size_t i = (hole + 1) & indexMask; index[i] != none;
         i = (i + 1) & indexMask) {
        const std::size_t from_home =
            (i - home(slots[index[i]].page)) & indexMask;
        if (from_home >= ((i - hole) & indexMask)) {
            index[hole] = index[i];
            hole = i;
        }
    }
    index[hole] = none;
}

} // namespace na::mem
