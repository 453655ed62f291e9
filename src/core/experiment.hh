/**
 * @file
 * Experiment runner: establish, warm up, measure, extract.
 */

#ifndef NETAFFINITY_CORE_EXPERIMENT_HH
#define NETAFFINITY_CORE_EXPERIMENT_HH

#include "src/core/measurement.hh"
#include "src/core/system.hh"

namespace na::core {

/** Timing of a measurement run (simulated durations in ticks). */
struct RunSchedule
{
    sim::Tick establishDeadline = 4'000'000'000; ///< 2 s
    sim::Tick warmup = 60'000'000;               ///< 30 ms
    sim::Tick measure = 100'000'000;             ///< 50 ms

    /**
     * Every run measures one window of @c measure ticks. These two
     * constants name the fixed single-window schedule in the point key
     * text, so the keys of existing result streams still match.
     */
    static constexpr int maxWindows = 0;
    static constexpr double convergeTolerance = 0.01;

    /**
     * Wall-clock watchdog: if one run (establish + warmup + measure)
     * takes longer than this many real seconds, the run is abandoned
     * with std::runtime_error. 0 disables (the default). Checked at
     * slice boundaries (1/16 of each phase), so enforcement lags by at
     * most one slice; bit-identical to an unlimited run that finishes
     * in time, because slicing runUntil cannot change event order.
     */
    double wallLimitSeconds = 0.0;
};

/** Drives Systems through the measurement protocol. */
class Experiment
{
  public:
    /**
     * Full protocol on an existing System (which stays alive for
     * post-run inspection: accounting matrix, sampler, stats).
     */
    static RunResult measure(System &system,
                             const RunSchedule &schedule = RunSchedule{});

    /** Build a System from @p config, run, return the result. */
    static RunResult run(const SystemConfig &config,
                         const RunSchedule &schedule = RunSchedule{});

    /** Extract a RunResult from the system's current counters. */
    static RunResult extract(System &system, double seconds,
                             std::uint64_t payload_bytes);
};

} // namespace na::core

#endif // NETAFFINITY_CORE_EXPERIMENT_HH
