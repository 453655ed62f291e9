/**
 * @file
 * The modeled platform: its fixed constants and its few settable knobs.
 *
 * The constants describe the paper's one system under test: 2x 2 GHz
 * P4 Xeon MP (8 KiB L1D, 512 KiB L2, 2 MiB L3, trace cache, deep
 * pipeline) on a snooping FSB chipset, scheduled by Linux 2.4.20. They
 * are `static constexpr`, so a read such as `config.freqHz` compiles
 * while an assignment does not. The members that are not constant are
 * the knobs benches and behaviour tests vary.
 */

#ifndef NETAFFINITY_CPU_PLATFORM_CONFIG_HH
#define NETAFFINITY_CPU_PLATFORM_CONFIG_HH

#include <array>
#include <cstdint>

#include "src/mem/hierarchy.hh"
#include "src/prof/bins.hh"

namespace na::cpu {

/** Static description of the simulated SMP platform. */
struct PlatformConfig
{
    /** @name Topology @{ */
    int numCpus = 2;
    static constexpr double freqHz = 2.0e9; ///< 2 GHz Xeon MP
    /** @} */

    /** @name Memory system (latencies: mem::MemTiming) @{ */
    static constexpr mem::CacheGeometry cacheGeometry{};
    static constexpr unsigned itlbEntries = 64;
    static constexpr unsigned dtlbEntries = 64;
    /** ~12k uops equivalent */
    static constexpr std::uint64_t traceCacheBytes = 48 * 1024;
    /** @} */

    /** @name Event penalties (timing model, cycles) @{ */
    static constexpr unsigned tcMissPenalty = 20; ///< per trace line rebuilt
    static constexpr unsigned itlbWalkPenalty = 30;
    static constexpr unsigned dtlbWalkPenalty = 36;
    static constexpr unsigned brMispredictPenalty = 30;
    /**
     * Effective (overlap-adjusted) stall charged per machine clear.
     * The *nominal* P4 cost the paper's impact analysis uses is 500;
     * on a real out-of-order pipeline much of it hides under other
     * stalls, so timing charges less (analysis::eventCosts keeps 500).
     */
    static constexpr unsigned clearPenaltyEffective = 300;
    /** @} */

    /** @name Machine-clear generation @{ */
    /**
     * Probability that losing a speculatively-held cache line to a
     * remote writer (or DMA) flushes the victim's pipeline — the
     * P4 memory-ordering clear.
     */
    double orderingClearProb = 0.85;
    /**
     * Intrinsic clears per 1000 instructions by bin: P4 store-buffer /
     * MOB clears that occur regardless of affinity (dominant in bulk
     * copy and buffer-walk code). Indexed by prof::Bin.
     */
    static constexpr std::array<double, prof::numBins>
        intrinsicClearsPerKInstr = {
            0.8, // Interface
            0.7, // Engine
            1.2, // BufMgmt
            5.0, // Copies
            0.7, // Driver
            0.5, // Locks
            0.8, // Timers
            0.2, // User
        };
    /** @} */

    /** @name Branch predictor state @{ */
    /**
     * Multiplier applied to a function's base mispredict rate when its
     * trace (and thus BTB history) is cold on this CPU.
     */
    static constexpr double coldMispredictBoost = 6.0;
    /** @} */

    /** @name OS parameters @{ */
    /** 10 ms (2.4's HZ tick) */
    static constexpr std::uint64_t timesliceCycles = 20'000'000;
    std::uint64_t timerTickCycles = 20'000'000;  ///< 100 Hz tick
    /** 2.5 ms */
    static constexpr std::uint64_t balanceIntervalCycles = 5'000'000;
    /** pull if busiest >= 125% of us */
    static constexpr double balanceImbalanceRatio = 1.25;
    /** migration resistance, 2 ms */
    static constexpr std::uint64_t cacheHotCycles = 4'000'000;
    bool wakeAffine = true; ///< allow wakeups to pull tasks to the waker
    /** @} */

    /** @name Determinism @{ */
    std::uint64_t seed = 42;
    /** @} */
};

} // namespace na::cpu

#endif // NETAFFINITY_CPU_PLATFORM_CONFIG_HH
