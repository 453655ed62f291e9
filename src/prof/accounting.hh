/**
 * @file
 * Exact per-(CPU, function, event) accounting.
 *
 * The CPU model reports every architectural event here as it charges
 * work. This is the ground truth the characterization tables are built
 * from; the statistical SampleProfiler (Oprofile stand-in) layers on top
 * via the Listener hook.
 */

#ifndef NETAFFINITY_PROF_ACCOUNTING_HH
#define NETAFFINITY_PROF_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/prof/bins.hh"
#include "src/prof/func_registry.hh"
#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace na::prof {

/**
 * Observer of event postings (used by SampleProfiler).
 * Called synchronously from BinAccounting::add and addAll.
 */
class Listener
{
  public:
    virtual ~Listener() = default;

    /** @p count occurrences of @p ev in @p func on @p cpu. */
    virtual void onEvents(sim::CpuId cpu, FuncId func, Event ev,
                          std::uint64_t count) = 0;
};

/** One count per Event, indexed by the Event's value. */
using EventCounts = std::array<std::uint64_t, numEvents>;

/** The exact event matrix. */
class BinAccounting
{
  public:
    explicit BinAccounting(int num_cpus);

    /** Post @p count occurrences of @p ev attributed to @p func. */
    void
    add(sim::CpuId cpu, FuncId func, Event ev, std::uint64_t count)
    {
        if (count == 0)
            return;
        if (cpu < 0 || cpu >= nCpus)
            sim::panic("BinAccounting::add: bad cpu %d", cpu);
        counts[index(cpu, func, ev)] += count;
        if (listener)
            listener->onEvents(cpu, func, ev, count);
    }

    /**
     * Post one count per event, all attributed to @p func: the same
     * matrix and the same listener calls (zero counts skipped, in
     * Event order) as one add() per event.
     */
    void
    addAll(sim::CpuId cpu, FuncId func, const EventCounts &row)
    {
        if (cpu < 0 || cpu >= nCpus)
            sim::panic("BinAccounting::addAll: bad cpu %d", cpu);
        std::uint64_t *cells = &counts[index(cpu, func, Event{})];
        for (std::size_t e = 0; e < numEvents; ++e)
            cells[e] += row[e];
        if (!listener)
            return;
        for (std::size_t e = 0; e < numEvents; ++e) {
            if (row[e])
                listener->onEvents(cpu, func, static_cast<Event>(e),
                                   row[e]);
        }
    }

    /** @return exact count for one (cpu, func, event) cell. */
    std::uint64_t
    get(sim::CpuId cpu, FuncId func, Event ev) const
    {
        return counts[index(cpu, func, ev)];
    }

    /** @return count summed over all CPUs for (func, event). */
    std::uint64_t byFunc(FuncId func, Event ev) const;

    /** @return count summed over a bin's functions (all CPUs). */
    std::uint64_t byBin(Bin bin, Event ev) const;

    /** @return count for a bin restricted to one CPU. */
    std::uint64_t byBinCpu(sim::CpuId cpu, Bin bin, Event ev) const;

    /** @return grand total of @p ev across all cpus/functions. */
    std::uint64_t total(Event ev) const;

    /** @return grand total restricted to one CPU. */
    std::uint64_t totalCpu(sim::CpuId cpu, Event ev) const;

    /** Zero the whole matrix (end of warmup). */
    void reset();

    /** Attach/detach the sampling listener (may be nullptr). */
    void setListener(Listener *l) { listener = l; }

    int numCpus() const { return nCpus; }

  private:
    int nCpus;
    /** [cpu][func][event], flattened. */
    std::vector<std::uint64_t> counts;
    Listener *listener = nullptr;

    std::size_t
    index(sim::CpuId cpu, FuncId func, Event ev) const
    {
        return (static_cast<std::size_t>(cpu) * numFuncs +
                static_cast<std::size_t>(func)) *
                   numEvents +
               static_cast<std::size_t>(ev);
    }
};

} // namespace na::prof

#endif // NETAFFINITY_PROF_ACCOUNTING_HH
