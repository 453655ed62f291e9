/**
 * @file
 * The CPU core timing-and-event engine.
 *
 * A Core does not fetch instructions; the simulated OS/stack code calls
 * charge() with a description of the work one function invocation
 * performed (instruction count, memory touches), and the Core turns it
 * into cycles plus architectural events by consulting its private cache
 * hierarchy, TLBs, trace cache and branch state. Everything it computes
 * is posted to its PerfCounters and the shared prof::BinAccounting.
 *
 * Machine-clear mechanics (the paper's headline event) live here:
 *  - intrinsic clears: P4 store-buffer/MOB flushes proportional to a
 *    bin-specific instruction rate;
 *  - ordering clears: when a remote writer or DMA steals a line this
 *    core holds while busy, its pipeline flushes with configurable
 *    probability (penalty lands on its *next* charge — modeling skid);
 *  - interrupt clears: posted by the OS at IRQ/IPI delivery.
 */

#ifndef NETAFFINITY_CPU_CORE_HH
#define NETAFFINITY_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/cpu/perf_counters.hh"
#include "src/cpu/platform_config.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/tlb.hh"
#include "src/mem/trace_cache.hh"
#include "src/prof/accounting.hh"
#include "src/prof/func_registry.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace na::cpu {

/** One contiguous data access performed by a charge. */
struct MemTouch
{
    sim::Addr addr = 0;
    std::uint32_t bytes = 0;
    bool write = false;
};

/** Full description of one function invocation's work. */
struct ChargeSpec
{
    prof::FuncId func = prof::FuncId::UserApp;
    std::uint64_t instructions = 0;
    /** Extra cycles consumed with no instructions (spin waits etc.). */
    std::uint64_t extraCycles = 0;
    /** Miss-penalty overlap factor in (0,1]; <1 for streaming copies. */
    double overlap = 1.0;
    std::span<const MemTouch> touches{};
    /** Override branch count (default: instructions * branchFrac). */
    std::int64_t branchesOverride = -1;
    /** Override mispredict count (default: rate model). */
    std::int64_t mispredictsOverride = -1;
    /** Machine clears delivered with this dispatch (IRQ entry). */
    std::uint32_t asyncClears = 0;
};

/** What one charge cost (and caused). */
struct ChargeResult
{
    sim::Tick cycles = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t machineClears = 0;
    /** Lines this charge stole from each remote CPU. */
    std::array<std::uint32_t, mem::maxSmpCpus> stolenFrom{};
};

/**
 * One simulated CPU core.
 *
 * Dispatch protocol (driven by os::Cpu): beginDispatch() at the start of
 * a scheduling quantum of work, any number of charge() calls, then
 * dispatchCycles() to learn the total. Between dispatches the OS may
 * account idle time with addIdleCycles().
 */
class Core : public stats::Group
{
  public:
    Core(stats::Group *parent, const std::string &name, sim::CpuId cpu,
         const PlatformConfig &config, mem::SnoopDomain &domain,
         prof::BinAccounting &accounting);

    /** Wire up the other cores so steals can flush their pipelines. */
    void setPeers(std::vector<Core *> peers);

    /** @name Dispatch protocol @{ */
    void beginDispatch();
    sim::Tick dispatchCycles() const { return accumulated; }
    /** @} */

    /** Execute one function invocation's work. */
    ChargeResult charge(const ChargeSpec &spec);

    /** Account idle (poll-loop) time between dispatches. */
    void addIdleCycles(sim::Tick cycles);

    /**
     * A remote writer or DMA stole @p lines cache lines from this core.
     * While busy, each stolen line may trigger a memory-ordering
     * machine clear (P4 behaviour); penalties accrue to the next charge
     * (interrupt skid).
     */
    void notifyLinesStolen(std::uint32_t lines);

    /**
     * An asynchronous interrupt (IPI) flushed the pipeline; the clear is
     * attributed to the code currently executing, per the paper's skid
     * discussion.
     */
    void postIpiClear();

    /** Count a device interrupt taken (clear booked via asyncClears). */
    void countIrq() { ++counters.irqsReceived; }

    /** Count an IPI taken. */
    void countIpi() { ++counters.ipisReceived; }

    /** The OS marks whether the core is running work or idle-polling. */
    void setBusy(bool busy) { busyFlag = busy; }

    /** Record a context switch; cold-starts branch state mildly. */
    void noteContextSwitch() { ++counters.contextSwitches; }

    /** Record an inbound task migration. */
    void noteMigrationIn() { ++counters.migrationsIn; }

    /** @return the function currently (last) executing on this core. */
    prof::FuncId currentFunc() const { return curFunc; }

    sim::CpuId cpuId() const { return cpu; }

    mem::CacheHierarchy &dataCaches() { return hierarchy; }
    const mem::CacheHierarchy &dataCaches() const { return hierarchy; }

    PerfCounters counters;

  private:
    sim::CpuId cpu;
    const PlatformConfig &config;
    prof::BinAccounting &accounting;
    mem::CacheHierarchy hierarchy;
    mem::Tlb itlb;
    mem::Tlb dtlb;
    mem::TraceCache traceCache;
    sim::Random rng;
    std::vector<Core *> peerCores;

    prof::FuncId curFunc = prof::FuncId::UserApp;
    bool busyFlag = false;
    sim::Tick accumulated = 0;
    /** Stall cycles from async clears, charged to the next dispatch. */
    sim::Tick pendingClearPenalty = 0;
    std::uint32_t pendingClearCount = 0;

    /**
     * Ring of recent charges for async-clear attribution: an interrupt
     * or snoop lands anywhere in the victim's instruction stream with
     * probability proportional to time spent there.
     */
    struct RecentCharge
    {
        prof::FuncId func;
        sim::Tick cycles;
    };
    static constexpr std::size_t recentRingSize = 16;
    std::array<RecentCharge, recentRingSize> recentCharges{};
    std::size_t recentNext = 0;
    sim::Tick recentTotal = 0;

    /** Pick a clear-attribution target, cycle-weighted over recents. */
    prof::FuncId sampleInterruptedFunc();

    /** Touch the function's code pages through ITLB and trace cache. */
    void touchCode(const prof::FuncDesc &desc, std::uint64_t &tc_misses,
                   std::uint64_t &itlb_misses);
};

} // namespace na::cpu

#endif // NETAFFINITY_CPU_CORE_HH
