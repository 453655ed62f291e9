/**
 * @file
 * Thread-pooled multi-configuration experiment engine.
 *
 * A Campaign takes a list of (SystemConfig, RunSchedule) points and
 * executes each point's full measurement protocol on a pool of worker
 * threads. Every System owns its own EventQueue, kernel, and RNGs, so
 * configurations are embarrassingly parallel; the campaign exploits
 * that while keeping the output *bit-identical* to a serial run:
 *
 *  - each point gets a deterministic seed derived only from the
 *    campaign seed and the point's submission index (never from thread
 *    identity or scheduling), and
 *  - results are collected into a vector indexed by submission order.
 *
 * Running the same point list with 1, 2, or N worker threads therefore
 * produces the same bytes.
 */

#ifndef NETAFFINITY_CORE_CAMPAIGN_HH
#define NETAFFINITY_CORE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/measurement.hh"
#include "src/core/system.hh"

namespace na::core {

/** One experiment of a campaign: what to build and how long to run. */
struct CampaignPoint
{
    SystemConfig config;
    RunSchedule schedule{};
    /** Human-readable identifier (kept in JSON exports). */
    std::string label;
};

/**
 * Points and results of a completed campaign, in submission order.
 * result(i) always corresponds to point(i) regardless of how many
 * worker threads executed the campaign.
 */
class ResultSet
{
  public:
    ResultSet() = default;
    ResultSet(std::vector<CampaignPoint> points,
              std::vector<RunResult> results);

    std::size_t size() const { return pts.size(); }
    const CampaignPoint &point(std::size_t i) const { return pts.at(i); }
    const RunResult &result(std::size_t i) const { return res.at(i); }

    /** @return points that exhausted their retries (RunResult::failed). */
    std::size_t
    failureCount() const
    {
        std::size_t n = 0;
        for (const RunResult &r : res)
            n += r.failed ? 1 : 0;
        return n;
    }

    /**
     * @return the result of the unique point matching the given ttcp
     *         mode, message size, and affinity mode, or nullptr.
     *
     * Keyed on the enums themselves (not positional indices), so a
     * reordering of core::allAffinityModes can never silently swap
     * table columns.
     */
    const RunResult *find(workload::TtcpMode mode, std::uint32_t msg_size,
                          AffinityMode affinity) const;

    /** Like find(), but throws std::runtime_error when absent. */
    const RunResult &at(workload::TtcpMode mode, std::uint32_t msg_size,
                        AffinityMode affinity) const;

    /** @return result of the first point with @p label, or nullptr. */
    const RunResult *findLabel(std::string_view label) const;

    /** Like findLabel(), but throws std::runtime_error when absent. */
    const RunResult &at(std::string_view label) const;

    /** Campaign seed the per-point seeds were derived from. */
    std::uint64_t campaignSeed = 0;
    /** Worker threads the campaign actually used. */
    int threadsUsed = 1;

  private:
    std::vector<CampaignPoint> pts;
    std::vector<RunResult> res;
};

/** Parallel experiment-campaign runner. */
class Campaign
{
  public:
    /** Snapshot handed to Options::progressHook after each point. */
    struct Progress
    {
        /** Points finished by this run so far (incl. failures). */
        std::size_t completed = 0;
        /** Points this run will execute (after resume-skip and shard
         *  filtering). */
        std::size_t total = 0;
        /** Failed points among `completed`. */
        std::size_t failures = 0;
        /** Points prefilled from Options::resumeFrom, not re-run. */
        std::size_t resumed = 0;
        /** Label of the point that just finished. */
        std::string lastLabel;
    };

    struct Options
    {
        /**
         * Worker threads. 0 = auto: the NA_CAMPAIGN_THREADS
         * environment variable if set, else the hardware concurrency.
         */
        int numThreads = 0;

        /** Campaign seed; per-point seeds derive from it. */
        std::uint64_t seed = 42;

        /**
         * Overwrite each point's platform seed with
         * pointSeed(seed, index). Disable to run the configs' own
         * seeds verbatim.
         */
        bool derivePointSeeds = true;

        /**
         * Optional hook invoked on the worker thread after System
         * construction, before the measurement protocol — e.g. to
         * attach a profiler. The index is the point's submission
         * index; hooks touching shared state must only write to
         * per-index slots.
         */
        std::function<void(System &, const CampaignPoint &, std::size_t)>
            systemHook;

        /**
         * Optional hook invoked on the worker thread after the
         * measurement protocol, while the System is still alive — e.g.
         * to read steering-policy statistics or per-NIC counters that
         * RunResult does not carry. May annotate the result. The same
         * per-index-slot rule as systemHook applies.
         */
        std::function<void(System &, const CampaignPoint &, std::size_t,
                           RunResult &)>
            resultHook;

        /**
         * Attempts per point before giving up: a run that throws
         * (watchdog overrun, event-queue stall, failed establishment)
         * is retried on a fresh System with a different substream
         * seed, up to this many tries total. Attempt 0 uses exactly
         * the seed a retry-less campaign would, so campaigns whose
         * points all succeed first try are unchanged by this option.
         */
        int maxAttempts = 2;

        /**
         * Deterministic point partitioning for multi-process sweeps:
         * this run executes only the points whose submission index i
         * satisfies i % shardCount == shardIndex. Per-point seeds
         * still derive from the *global* submission index, so a
         * sharded sweep merged back together (results_jsonl.hh:
         * assembleResultSet) is bit-identical to the same sweep run
         * unsharded. Non-owned slots in the returned ResultSet stay
         * default-constructed.
         */
        int shardIndex = 0;
        int shardCount = 1;

        /**
         * Stream every completed point (successes and failures) to
         * this path as one JSONL record, appended and flushed as the
         * point finishes — a crashed campaign keeps everything it
         * completed. Empty disables. Records carry the canonical
         * point key, so the file doubles as a resume source.
         */
        std::string jsonlPath;

        /**
         * Resume a previous campaign from its JSONL stream: points
         * whose canonical key has a *successful* record in the file
         * are prefilled from it and skipped; failed records (and
         * points with no record) run normally, with exactly the seeds
         * an un-resumed campaign would use. Prefilled results carry
         * the schema-serialized fields only (bins stay zeroed, as
         * after any JSON round trip). When jsonlPath names a
         * different file, prefilled records are re-emitted there so
         * the new stream is self-contained; when it names the same
         * file they are already present and are not duplicated.
         */
        std::string resumeFrom;

        /**
         * Liveness reporting: invoked (serialized, on the finishing
         * worker thread) after each executed point. Long sweeps
         * should print something here instead of going silent for
         * hours.
         */
        std::function<void(const Progress &)> progressHook;
    };

    /**
     * Deterministic per-point seed: splitmix64 finalizer over the
     * campaign seed and the point's submission index. Independent of
     * thread count and execution order.
     */
    static std::uint64_t pointSeed(std::uint64_t campaign_seed,
                                   std::size_t index);

    /**
     * Seed for retry @p attempt of point @p index. Attempt 0 equals
     * pointSeed(campaign_seed, index) exactly; later attempts mix in
     * the attempt number so a flaky point explores a fresh stream.
     * Deterministic: retries are a function of (seed, index, attempt),
     * never of thread identity or timing.
     */
    static std::uint64_t retrySeed(std::uint64_t campaign_seed,
                                   std::size_t index, int attempt);

    /**
     * Resolve an Options::numThreads request to a concrete count.
     * 0 = auto: NA_CAMPAIGN_THREADS when set (strictly parsed — junk
     * or a negative count throws instead of silently meaning auto;
     * an explicit 0 means auto), else the hardware concurrency.
     */
    static int resolveThreads(int requested);

    /**
     * Apply Options::derivePointSeeds to @p points exactly as run()
     * would (a no-op when disabled). Shard workers and merge tools
     * call this so keys computed out-of-process match the campaign's.
     */
    static void applyPointSeeds(std::vector<CampaignPoint> &points,
                                const Options &options);

    /**
     * Canonical keys of @p points (seeds must already be applied),
     * collision-checked through a PointKeyRegistry. Duplicate keys
     * (identical points) are allowed and returned as-is.
     */
    static std::vector<std::uint64_t>
    pointKeys(const std::vector<CampaignPoint> &points);

    /**
     * Run every point and collect results in submission order.
     * Validates all configs up front. Points whose every attempt
     * throws become structured RunResult::failure records.
     */
    static ResultSet run(std::vector<CampaignPoint> points,
                         const Options &options);

    /** run() with default Options. */
    static ResultSet run(std::vector<CampaignPoint> points);
};

} // namespace na::core

#endif // NETAFFINITY_CORE_CAMPAIGN_HH
