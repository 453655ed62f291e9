/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * event queue throughput, cache/TLB model access rates, the pure TCP
 * engine's segment processing rate, and the statistics helpers. These
 * gate the wall-clock cost of the paper-reproduction sweeps.
 */

#include <array>

#include <benchmark/benchmark.h>

#include "src/analysis/spearman.hh"
#include "src/core/campaign.hh"
#include "src/core/sweep.hh"
#include "src/mem/cache.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/tlb.hh"
#include "src/net/tcp_connection.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/logging.hh"
#include "src/sim/random.hh"

using namespace na;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t n = 0;
    sim::LambdaEvent ev("bm", [&n] { ++n; });
    for (auto _ : state) {
        eq.schedule(&ev, eq.now() + 10);
        eq.runOne();
    }
    benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * Deschedule/reschedule churn on member events — the Nic moderation
 * and Processor tick pattern: every deschedule removes a heap slot and
 * every schedule adds one.
 */
void
BM_EventQueueDescheduleStorm(benchmark::State &state)
{
    struct NopEvent : sim::Event
    {
        NopEvent() : sim::Event("nop") {}
        void process() override {}
    };

    sim::EventQueue eq;
    std::array<NopEvent, 64> evs;
    sim::Tick when = 1000;
    for (auto &ev : evs)
        eq.schedule(&ev, when += 10);
    for (auto _ : state) {
        for (auto &ev : evs)
            eq.deschedule(&ev);
        for (auto &ev : evs)
            eq.schedule(&ev, when += 10);
    }
    benchmark::DoNotOptimize(eq.size());
    for (auto &ev : evs)
        eq.deschedule(&ev);
}
BENCHMARK(BM_EventQueueDescheduleStorm);

/** Single-walk hit-or-fill against one L2-sized cache level. */
void
BM_CacheFindOrInsert(benchmark::State &state)
{
    stats::Group root(nullptr, "");
    mem::Cache c(&root, "c", 512 * 1024, 8);
    sim::Random rng(5);
    std::uint64_t prev = 0;
    for (auto _ : state) {
        const sim::Addr addr = (rng.next() % (1u << 21)) & ~63ULL;
        const auto r = c.findOrInsert(
            addr, rng.chance(0.3) ? mem::LineState::Modified
                                  : mem::LineState::Shared);
        prev += static_cast<std::uint64_t>(r.prev);
    }
    benchmark::DoNotOptimize(prev);
}
BENCHMARK(BM_CacheFindOrInsert);

/**
 * Remote-write snoops against a hierarchy whose caches mostly do NOT
 * hold the line — the dominant coherence pattern in the paper sweeps.
 * Exercises the inclusion short-circuit and the presence filter.
 */
void
BM_SnoopInvalidateAbsent(benchmark::State &state)
{
    mem::SnoopDomain domain;
    stats::Group root(nullptr, "");
    mem::CacheGeometry geom;
    mem::CacheHierarchy h0(&root, "h0", 0, geom, domain);
    sim::Random rng(6);
    // Warm h0 with a small working set, then snoop a disjoint region.
    for (int i = 0; i < 4096; ++i)
        h0.access((rng.next() % (1u << 18)) & ~63ULL, 64, true);
    std::uint64_t found = 0;
    for (auto _ : state) {
        const sim::Addr addr =
            ((1u << 22) + (rng.next() % (1u << 22))) & ~63ULL;
        found += static_cast<std::uint64_t>(h0.snoopInvalidate(addr));
    }
    benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_SnoopInvalidateAbsent);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    mem::SnoopDomain domain;
    stats::Group root(nullptr, "");
    mem::CacheGeometry geom;
    mem::CacheHierarchy h0(&root, "h0", 0, geom, domain);
    mem::CacheHierarchy h1(&root, "h1", 1, geom, domain);
    sim::Random rng(1);
    std::uint64_t stalls = 0;
    for (auto _ : state) {
        const sim::Addr addr = (rng.next() % (1u << 22)) & ~63ULL;
        const bool write = rng.chance(0.3);
        stalls += h0.access(addr, 64, write).stallCycles;
    }
    benchmark::DoNotOptimize(stalls);
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_TlbAccess(benchmark::State &state)
{
    stats::Group root(nullptr, "");
    mem::Tlb tlb(&root, "tlb", 64);
    sim::Random rng(2);
    std::uint64_t hits = 0;
    for (auto _ : state)
        hits += tlb.access(rng.next() % (1u << 26));
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_TlbAccess);

void
BM_TcpSegmentRoundTrip(benchmark::State &state)
{
    // One sender/receiver pair exchanging an MSS of data per iteration
    // through the pure protocol engine.
    net::TcpConnection a;
    net::TcpConnection b;
    a.openActive();
    b.openPassive();
    std::vector<net::Segment> replies;
    sim::Tick now = 0;
    auto deliver = [&](net::TcpConnection &from, net::TcpConnection &to) {
        for (const net::Segment &s : from.pullSegments(now)) {
            replies.clear();
            to.onSegment(s, now, replies);
            for (const net::Segment &r : replies) {
                std::vector<net::Segment> drop;
                from.onSegment(r, now, drop);
            }
        }
    };
    deliver(a, b); // SYN
    deliver(b, a); // (handshake completes via replies)
    deliver(a, b);

    for (auto _ : state) {
        now += 1000;
        a.appendSendData(1448);
        deliver(a, b);
        b.consume(b.readableBytes());
        deliver(b, a);
    }
    benchmark::DoNotOptimize(a.ackedBytes());
}
BENCHMARK(BM_TcpSegmentRoundTrip);

void
BM_Spearman(benchmark::State &state)
{
    sim::Random rng(3);
    std::vector<double> x(64);
    std::vector<double> y(64);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.uniform();
        y[i] = x[i] + 0.1 * rng.uniform();
    }
    double rho = 0;
    for (auto _ : state)
        rho += analysis::spearman(x, y);
    benchmark::DoNotOptimize(rho);
}
BENCHMARK(BM_Spearman);

void
BM_RandomNext(benchmark::State &state)
{
    sim::Random rng(4);
    std::uint64_t v = 0;
    for (auto _ : state)
        v ^= rng.next();
    benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_RandomNext);

/**
 * One complete (small) campaign point per iteration: System build,
 * warmup, measurement, extraction. The end-to-end number the paper
 * sweeps are made of; perfbench's sim_ms_per_host_s measures the same
 * rate over whole workloads.
 */
void
BM_CampaignPoint(benchmark::State &state)
{
    sim::setQuiet(true);
    core::SystemConfig base;
    base.numConnections = 1;
    core::RunSchedule schedule;
    schedule.warmup = 1'000'000;  // 0.5 ms simulated
    schedule.measure = 4'000'000; // 2 ms simulated
    const std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(schedule)
            .size(4096)
            .affinities({core::AffinityMode::Full})
            .build();
    core::Campaign::Options opts;
    opts.numThreads = 1;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const core::ResultSet rs = core::Campaign::run(points, opts);
        bytes += rs.result(0).payloadBytes;
    }
    benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_CampaignPoint)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
