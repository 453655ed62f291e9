#include "src/mem/tlb.hh"

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
}

bool
Tlb::access(sim::Addr addr)
{
    const PageNum page = pageOf(addr);
    auto it = map.find(page);
    if (it != map.end()) {
        ++hits;
        lru.splice(lru.begin(), lru, it->second);
        return true;
    }
    ++walks;
    if (map.size() >= numEntries) {
        map.erase(lru.back());
        lru.pop_back();
    }
    lru.push_front(page);
    map[page] = lru.begin();
    return false;
}

bool
Tlb::resident(sim::Addr addr) const
{
    return map.count(pageOf(addr)) != 0;
}

} // namespace na::mem
