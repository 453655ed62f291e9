#include "src/core/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/core/env.hh"
#include "src/core/point_key.hh"
#include "src/core/results_jsonl.hh"
#include "src/sim/logging.hh"

namespace na::core {

ResultSet::ResultSet(std::vector<CampaignPoint> points,
                     std::vector<RunResult> results)
    : pts(std::move(points)), res(std::move(results))
{
    if (pts.size() != res.size())
        throw std::runtime_error("ResultSet: point/result count mismatch");
}

const RunResult *
ResultSet::find(workload::TtcpMode mode, std::uint32_t msg_size,
                AffinityMode affinity) const
{
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const SystemConfig &c = pts[i].config;
        if (c.workloadKind() != workload::Kind::Ttcp)
            continue;
        if (c.ttcp().mode == mode && c.ttcp().msgSize == msg_size &&
            c.affinity == affinity) {
            return &res[i];
        }
    }
    return nullptr;
}

const RunResult &
ResultSet::at(workload::TtcpMode mode, std::uint32_t msg_size,
              AffinityMode affinity) const
{
    if (const RunResult *r = find(mode, msg_size, affinity))
        return *r;
    throw std::runtime_error(sim::format(
        "ResultSet: no point for %s %uB %s",
        mode == workload::TtcpMode::Transmit ? "TX" : "RX", msg_size,
        std::string(affinityName(affinity)).c_str()));
}

const RunResult *
ResultSet::findLabel(std::string_view label) const
{
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].label == label)
            return &res[i];
    }
    return nullptr;
}

const RunResult &
ResultSet::at(std::string_view label) const
{
    if (const RunResult *r = findLabel(label))
        return *r;
    throw std::runtime_error(
        sim::format("ResultSet: no point labelled '%.*s'",
                    static_cast<int>(label.size()), label.data()));
}

namespace {

/**
 * Derive the platform seed for retry @p attempt from a point's base
 * seed. Attempt 0 is the base seed itself — a campaign whose points
 * all succeed first try is bit-identical to one run without retries.
 */
std::uint64_t
mixRetrySeed(std::uint64_t base, int attempt)
{
    if (attempt == 0)
        return base;
    std::uint64_t z =
        base ^ (0xd1342543de82ef95ULL *
                static_cast<std::uint64_t>(attempt));
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z ? z : 0x9e3779b97f4a7c15ULL;
}

} // namespace

std::uint64_t
Campaign::pointSeed(std::uint64_t campaign_seed, std::size_t index)
{
    // splitmix64 finalizer over (seed, index); the golden-ratio stride
    // decorrelates adjacent indices before the mix.
    std::uint64_t z = campaign_seed +
                      0x9e3779b97f4a7c15ULL *
                          (static_cast<std::uint64_t>(index) + 1);
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z ? z : 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Campaign::retrySeed(std::uint64_t campaign_seed, std::size_t index,
                    int attempt)
{
    return mixRetrySeed(pointSeed(campaign_seed, index), attempt);
}

int
Campaign::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    // env::intValue throws on junk ("abc", "4x") — the old std::atoi
    // path silently read garbage as 0 and fell through to auto.
    if (std::optional<long long> n =
            env::intValue("NA_CAMPAIGN_THREADS")) {
        if (*n < 0) {
            throw std::runtime_error(sim::format(
                "NA_CAMPAIGN_THREADS=%lld: thread count cannot be "
                "negative (use 0 or unset for auto)",
                *n));
        }
        if (*n > 0) {
            return static_cast<int>(
                std::min<long long>(*n, 1'000'000));
        }
        // An explicit 0 means auto, same as unset.
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
Campaign::applyPointSeeds(std::vector<CampaignPoint> &points,
                          const Options &options)
{
    if (!options.derivePointSeeds)
        return;
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].config.platform.seed = pointSeed(options.seed, i);
}

std::vector<std::uint64_t>
Campaign::pointKeys(const std::vector<CampaignPoint> &points)
{
    std::vector<std::uint64_t> keys(points.size());
    PointKeyRegistry registry;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string text = canonicalPointText(points[i].config,
                                              points[i].schedule);
        keys[i] = hashCanonicalText(text);
        registry.add(keys[i], std::move(text), i);
    }
    return keys;
}

ResultSet
Campaign::run(std::vector<CampaignPoint> points)
{
    return run(std::move(points), Options{});
}

ResultSet
Campaign::run(std::vector<CampaignPoint> points, const Options &options)
{
    if (options.shardCount < 1 || options.shardIndex < 0 ||
        options.shardIndex >= options.shardCount) {
        throw std::runtime_error(sim::format(
            "campaign: shard %d/%d is not a valid partition (want "
            "0 <= index < count)",
            options.shardIndex, options.shardCount));
    }

    applyPointSeeds(points, options);
    // Fail fast, before any thread spawns, with the offending point.
    for (std::size_t i = 0; i < points.size(); ++i) {
        try {
            points[i].config.validate();
        } catch (const std::exception &e) {
            throw std::runtime_error(sim::format(
                "campaign point %zu (%s) [%s]: %s", i,
                points[i].label.c_str(),
                points[i].config.summary().c_str(), e.what()));
        }
    }

    // Canonical keys: collision-checked, and identical points (same
    // key, possible with derivePointSeeds off) execute once — the
    // later duplicates alias the first slot's result.
    constexpr std::size_t no_alias = static_cast<std::size_t>(-1);
    std::vector<std::uint64_t> keys(points.size());
    std::vector<std::size_t> alias(points.size(), no_alias);
    {
        PointKeyRegistry registry;
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::string text = canonicalPointText(points[i].config,
                                                  points[i].schedule);
            keys[i] = hashCanonicalText(text);
            const PointKeyRegistry::Entry e =
                registry.add(keys[i], std::move(text), i);
            if (e.duplicate)
                alias[i] = e.firstIndex;
        }
    }

    std::vector<RunResult> results(points.size());
    std::vector<char> prefilled(points.size(), 0);
    std::size_t resumed = 0;
    if (!options.resumeFrom.empty()) {
        const JsonlFile prior = readResultsJsonlFile(options.resumeFrom);
        const auto latest = prior.latestByKey();
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (alias[i] != no_alias)
                continue;
            const auto it = latest.find(keys[i]);
            if (it == latest.end())
                continue;
            const RunResult &rec =
                prior.records[it->second].rec.result;
            if (rec.failed)
                continue; // failed points re-run
            results[i] = rec;
            prefilled[i] = 1;
            ++resumed;
        }
    }

    // The points this process actually executes: not resumed, not a
    // duplicate, and owned by this shard of the partition.
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (alias[i] != no_alias || prefilled[i])
            continue;
        if (static_cast<int>(i % static_cast<std::size_t>(
                                     options.shardCount)) !=
            options.shardIndex) {
            continue;
        }
        queue.push_back(i);
    }

    std::unique_ptr<JsonlAppender> appender;
    if (!options.jsonlPath.empty()) {
        appender = std::make_unique<JsonlAppender>(options.jsonlPath);
        if (!appender->ok()) {
            throw std::runtime_error(sim::format(
                "campaign: cannot open JSONL stream '%s' for append",
                options.jsonlPath.c_str()));
        }
        // Resuming into a *different* stream: re-emit the prefilled
        // records so the new file is self-contained. Resuming into
        // the same file would only duplicate lines it already has.
        if (options.jsonlPath != options.resumeFrom) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (prefilled[i])
                    appender->append(points[i], results[i], keys[i]);
            }
        }
    }

    std::mutex io_mutex; // serializes appender + progress counters
    std::size_t completed = 0;
    std::size_t failures = 0;
    bool append_ok = true;

    std::atomic<std::size_t> next{0};
    const int max_attempts =
        options.maxAttempts > 0 ? options.maxAttempts : 1;

    auto work = [&]() {
        while (true) {
            const std::size_t qi =
                next.fetch_add(1, std::memory_order_relaxed);
            if (qi >= queue.size())
                return;
            const std::size_t i = queue[qi];

            std::string last_error;
            std::uint64_t ticks_reached = 0;
            int attempt = 0;
            for (; attempt < max_attempts; ++attempt) {
                // Retries re-derive the platform seed from the point's
                // base seed and the attempt number only — a function of
                // submission index, never of threads or timing — so the
                // whole campaign stays bit-reproducible even when some
                // points need several tries.
                SystemConfig cfg = points[i].config;
                cfg.platform.seed = mixRetrySeed(
                    points[i].config.platform.seed, attempt);
                std::unique_ptr<System> system;
                try {
                    system = std::make_unique<System>(cfg);
                    if (options.systemHook)
                        options.systemHook(*system, points[i], i);
                    results[i] = Experiment::measure(
                        *system, points[i].schedule);
                    if (options.resultHook) {
                        options.resultHook(*system, points[i], i,
                                           results[i]);
                    }
                    break;
                } catch (const std::exception &e) {
                    last_error = e.what();
                    ticks_reached =
                        system ? system->eventQueue().now() : 0;
                    if (options.failureHook) {
                        options.failureHook(points[i], i, attempt + 1,
                                            last_error);
                    }
                }
            }
            if (attempt == max_attempts) {
                // Every attempt failed: degrade to a structured record
                // (the full message, untruncated) instead of killing
                // the campaign.
                results[i] = RunResult{};
                results[i].failed = true;
                results[i].failure.reason = last_error;
                results[i].failure.configSummary =
                    points[i].config.summary();
                results[i].failure.ticksReached = ticks_reached;
                results[i].failure.attempts = max_attempts;
            }

            // Persist + report while the point is fresh: the JSONL
            // line is flushed before the next point starts, so a
            // crash from here on loses nothing already completed.
            std::lock_guard<std::mutex> guard(io_mutex);
            if (appender && append_ok &&
                !appender->append(points[i], results[i], keys[i])) {
                append_ok = false;
                std::fprintf(stderr,
                             "warning: campaign JSONL stream '%s' "
                             "failed; later points will not be "
                             "persisted\n",
                             appender->path().c_str());
            }
            ++completed;
            if (results[i].failed)
                ++failures;
            if (options.progressHook) {
                Progress p;
                p.completed = completed;
                p.total = queue.size();
                p.failures = failures;
                p.resumed = resumed;
                p.lastLabel = points[i].label;
                options.progressHook(p);
            }
        }
    };

    int n_threads = resolveThreads(options.numThreads);
    if (queue.size() < static_cast<std::size_t>(n_threads))
        n_threads = static_cast<int>(queue.size());
    if (n_threads < 1)
        n_threads = 1;

    if (n_threads == 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(n_threads));
        for (int t = 0; t < n_threads; ++t)
            pool.emplace_back(work);
        for (std::thread &t : pool)
            t.join();
    }

    // Duplicate points never ran; alias them to the first copy's
    // result now that the pool has drained.
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (alias[i] != no_alias)
            results[i] = results[alias[i]];
    }

    if (options.failFast) {
        // Aggregate EVERY failed point's message in full — the old
        // behaviour of rethrowing only the first error silently
        // discarded the rest.
        std::string agg;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!results[i].failed)
                continue;
            if (!agg.empty())
                agg += '\n';
            agg += sim::format(
                "campaign point %zu (%s) [%s] failed after %d "
                "attempts: %s",
                i, points[i].label.c_str(),
                points[i].config.summary().c_str(),
                results[i].failure.attempts,
                results[i].failure.reason.c_str());
        }
        if (!agg.empty())
            throw std::runtime_error(agg);
    }

    ResultSet rs(std::move(points), std::move(results));
    rs.campaignSeed = options.seed;
    rs.threadsUsed = n_threads;
    return rs;
}

} // namespace na::core
