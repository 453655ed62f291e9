/**
 * @file
 * Steering subsystem: the StaticPaper bit-identity regression against a
 * golden capture of the pre-steering code, plus unit tests for the
 * Toeplitz hash, RSS indirection, and the Flow Director flow table.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include <memory>
#include <vector>

#include "src/core/campaign.hh"
#include "src/core/sweep.hh"
#include "src/net/steering.hh"
#include "src/sim/timeline.hh"

using namespace na;

namespace {

// ---------------------------------------------------------------------
// StaticPaper equivalence regression.
//
// Golden values captured from commit 649d64b (before the steering
// subsystem existed) with the exact campaign below: numConnections=2,
// warmup 2'000'000, measure 10'000'000, TX/RX x {4096, 65536} x all
// four affinity modes, Campaign seed 42 on 2 worker threads. Doubles
// are stored as raw IEEE-754 bit patterns so the comparison is exact.
// If this test fails, the steering refactor changed simulation
// behaviour for the paper's own configuration — that is a bug, not a
// baseline to re-capture.
// ---------------------------------------------------------------------

struct GoldenPoint
{
    std::uint64_t payloadBytes;
    std::uint64_t throughputBits; ///< RunResult::throughputMbps bits
    std::uint64_t ghzPerGbpsBits; ///< RunResult::ghzPerGbps bits
    std::uint64_t irqs;
    std::uint64_t ipis;
    std::uint64_t contextSwitches;
    std::uint64_t events[prof::numEvents];
};

constexpr GoldenPoint goldenTable[16] = {
    // TX 4096B No Aff
    {1067176ull, 4655224398940006148ull, 4608469679343064455ull, 383ull,
     3ull, 9ull,
     {10977649ull, 3073283ull, 394605ull, 1750ull, 19426ull, 19427ull,
      0ull, 0ull, 608ull, 6489ull}},
    // TX 4096B IRQ Aff
    {1175776ull, 4655988603501775579ull, 4608403445210289001ull, 507ull,
     0ull, 30ull,
     {11956441ull, 3485855ull, 448695ull, 2042ull, 20686ull, 20686ull,
      0ull, 0ull, 236ull, 6765ull}},
    // TX 4096B Proc Aff
    {1175776ull, 4655988603501775579ull, 4609419758672741727ull, 409ull,
     15ull, 21ull,
     {14079111ull, 3520120ull, 451101ull, 2012ull, 25243ull, 25244ull,
      0ull, 0ull, 1254ull, 9221ull}},
    // TX 4096B Full Aff
    {1177224ull, 4655998792895932504ull, 4608388583825292769ull, 511ull,
     0ull, 28ull,
     {11940088ull, 3472240ull, 447071ull, 2056ull, 20586ull, 20586ull,
      0ull, 0ull, 253ull, 6821ull}},
    // TX 65536B No Aff
    {1094688ull, 4655417997428987737ull, 4607933660529493168ull, 337ull,
     1ull, 9ull,
     {10218336ull, 2962799ull, 374184ull, 1719ull, 20192ull, 20201ull,
      0ull, 0ull, 962ull, 6082ull}},
    // TX 65536B IRQ Aff
    {1175776ull, 4655988603501775579ull, 4608060659720023502ull, 472ull,
     0ull, 32ull,
     {11240500ull, 3309510ull, 418703ull, 1952ull, 20762ull, 20762ull,
      0ull, 0ull, 1161ull, 6684ull}},
    // TX 65536B Proc Aff
    {1177224ull, 4655998792895932504ull, 4608929545130200104ull, 379ull,
     16ull, 26ull,
     {13071330ull, 3317825ull, 418277ull, 1915ull, 24871ull, 24872ull,
      0ull, 0ull, 1644ull, 8772ull}},
    // TX 65536B Full Aff
    {1175776ull, 4655988603501775579ull, 4608090553461086266ull, 478ull,
     0ull, 32ull,
     {11302936ull, 3334550ull, 421453ull, 1896ull, 20980ull, 20980ull,
      0ull, 0ull, 1162ull, 6652ull}},
    // RX 4096B No Aff
    {834600ull, 4653587790835419709ull, 4612770502795511327ull, 120ull,
     60ull, 60ull,
     {16569199ull, 2784713ull, 430933ull, 1856ull, 17729ull, 17742ull,
      0ull, 0ull, 960ull, 7162ull}},
    // RX 4096B IRQ Aff
    {974848ull, 4654574698398762612ull, 4612969238583039225ull, 238ull,
     0ull, 0ull,
     {20041816ull, 3384622ull, 519885ull, 2152ull, 18067ull, 18197ull,
      0ull, 0ull, 463ull, 13001ull}},
    // RX 4096B Proc Aff
    {834848ull, 4653589535980275316ull, 4612760506251104404ull, 120ull,
     60ull, 60ull,
     {16544473ull, 2771256ull, 428922ull, 1780ull, 17712ull, 17724ull,
      0ull, 0ull, 940ull, 7234ull}},
    // RX 4096B Full Aff
    {970752ull, 4654545875361147440ull, 4612984931360115129ull, 237ull,
     0ull, 0ull,
     {20011728ull, 3377545ull, 518798ull, 2220ull, 17988ull, 18117ull,
      0ull, 0ull, 464ull, 13064ull}},
    // RX 65536B No Aff
    {764544ull, 4653094815561208667ull, 4612247673559983872ull, 0ull,
     17ull, 17ull,
     {13758275ull, 2359956ull, 360793ull, 1486ull, 15587ull, 16020ull,
      0ull, 0ull, 852ull, 5479ull}},
    // RX 65536B IRQ Aff
    {1030976ull, 4654969664086083004ull, 4612671756640778169ull, 96ull,
     0ull, 0ull,
     {20106141ull, 3230497ull, 494349ull, 2090ull, 19231ull, 19453ull,
      0ull, 0ull, 452ull, 13885ull}},
    // RX 65536B Proc Aff
    {764544ull, 4653094815561208667ull, 4612252168800893011ull, 0ull,
     17ull, 17ull,
     {13770485ull, 2359956ull, 360793ull, 1563ull, 15587ull, 16020ull,
      0ull, 0ull, 852ull, 5488ull}},
    // RX 65536B Full Aff
    {1064280ull, 4655204020151692296ull, 4612543779751303098ull, 97ull,
     0ull, 0ull,
     {20271746ull, 3209900ull, 491005ull, 2085ull, 19720ull, 19941ull,
      0ull, 0ull, 445ull, 13758ull}},
};

std::uint64_t
doubleBits(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

core::ResultSet
runGoldenCampaign(double stats_interval_us,
                  core::Campaign::Options opts = {})
{
    core::SystemConfig base;
    base.numConnections = 2;
    base.statsIntervalUs = stats_interval_us;

    core::RunSchedule sched;
    sched.warmup = 2'000'000;
    sched.measure = 10'000'000;

    std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(sched)
            .modes({workload::TtcpMode::Transmit,
                    workload::TtcpMode::Receive})
            .sizes({4096u, 65536u})
            .affinities(core::allAffinityModes)
            .build();
    EXPECT_EQ(points.size(), 16u);

    opts.numThreads = 2;
    opts.seed = 42;
    return core::Campaign::run(std::move(points), opts);
}

void
expectGolden(const core::ResultSet &rs)
{
    ASSERT_EQ(rs.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i) {
        SCOPED_TRACE(rs.point(i).label);
        const core::RunResult &r = rs.result(i);
        const GoldenPoint &g = goldenTable[i];
        EXPECT_EQ(r.payloadBytes, g.payloadBytes);
        EXPECT_EQ(doubleBits(r.throughputMbps), g.throughputBits);
        EXPECT_EQ(doubleBits(r.ghzPerGbps), g.ghzPerGbpsBits);
        EXPECT_EQ(r.irqs, g.irqs);
        EXPECT_EQ(r.ipis, g.ipis);
        EXPECT_EQ(r.contextSwitches, g.contextSwitches);
        for (std::size_t e = 0; e < prof::numEvents; ++e)
            EXPECT_EQ(r.eventTotals[e], g.events[e]) << "event " << e;
        // And the steering plumbing reports itself correctly: one
        // queue carrying every frame.
        EXPECT_EQ(r.steeringPolicy, "static");
        ASSERT_EQ(r.rxFramesPerQueue.size(), 1u);
    }
}

TEST(SteeringStaticPaper, BitIdenticalToPreSteeringGolden)
{
    const core::ResultSet rs = runGoldenCampaign(0.0);
    expectGolden(rs);
    // statsIntervalUs = 0: no recorder exists and results carry no
    // interval series.
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_TRUE(rs.result(i).intervals.empty());
}

// The observability layer armed (interval snapshots every 100 us plus
// a timeline tracer on every point) must not perturb the simulation:
// the snapshot event reads counters but mutates no state and draws no
// random numbers, and the tracer only buffers. Identical goldens, and
// every counter's window deltas must telescope back to its aggregate.
TEST(SteeringStaticPaper, GoldenUnchangedWithObservabilityArmed)
{
    std::vector<std::unique_ptr<sim::TimelineTracer>> tracers(16);
    core::Campaign::Options opts;
    opts.systemHook = [&tracers](core::System &system,
                                 const core::CampaignPoint &,
                                 std::size_t index) {
        tracers[index] = std::make_unique<sim::TimelineTracer>();
        system.setTimelineTracer(tracers[index].get());
    };

    const core::ResultSet rs = runGoldenCampaign(100.0, opts);
    expectGolden(rs);

    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(rs.point(i).label);
        const core::RunResult &r = rs.result(i);
        ASSERT_FALSE(r.intervals.empty());
        for (std::size_t e = 0; e < prof::numEvents; ++e) {
            EXPECT_EQ(
                r.intervals.totalEvent(static_cast<prof::Event>(e)),
                r.eventTotals[e])
                << "event " << e;
        }
        // Per-queue frame deltas telescope too.
        std::uint64_t frames = 0;
        for (const prof::IntervalWindow &w : r.intervals.windows) {
            ASSERT_EQ(w.rxFramesPerQueue.size(), 1u);
            frames += w.rxFramesPerQueue[0];
        }
        EXPECT_EQ(frames, r.rxFramesPerQueue[0]);
        // The tracer saw traffic on every point.
        EXPECT_GT(tracers[i]->eventCount(), 0u);
    }
}

// ---------------------------------------------------------------------
// Policy unit tests.
// ---------------------------------------------------------------------

net::SteeringTopology
topo4()
{
    net::SteeringTopology t;
    t.numCpus = 4;
    t.numNics = 2;
    // The paper's block layout for 4 connections on 4 CPUs.
    t.paperCpu = [](int conn) {
        return static_cast<sim::CpuId>(conn * 4 / 4);
    };
    return t;
}

net::Packet
packetFor(int conn)
{
    net::Packet p;
    p.flow = net::connFlowKey(conn);
    p.seg.len = 1448;
    return p;
}

TEST(Toeplitz, IsDeterministicAndSpreads)
{
    const std::uint32_t h0 = net::toeplitzHash(0);
    const std::uint32_t h1 = net::toeplitzHash(1);
    EXPECT_EQ(h0, net::toeplitzHash(0));
    EXPECT_EQ(h1, net::toeplitzHash(1));
    EXPECT_NE(h0, h1);
    // Zero input has no set bits, so the hash is exactly zero.
    EXPECT_EQ(h0, 0u);
    // Distinct low-entropy inputs (the common small-flow pattern) should
    // not collapse onto a handful of values.
    std::set<std::uint32_t> seen;
    for (std::uint32_t f = 0; f < 64; ++f)
        seen.insert(net::toeplitzHash(f));
    EXPECT_EQ(seen.size(), 64u);
}

TEST(SteeringRss, HashesFlowsAcrossQueuesAndSpreadsVectors)
{
    net::SteeringConfig cfg;
    cfg.kind = net::SteeringKind::Rss;
    cfg.numQueues = 4;
    auto policy = net::makeSteeringPolicy(
        cfg, core::AffinityMode::None, topo4());
    ASSERT_TRUE(policy);
    EXPECT_EQ(policy->name(), "rss");
    EXPECT_EQ(policy->kind(), net::SteeringKind::Rss);
    EXPECT_EQ(policy->numQueues(), 4);

    std::set<int> queues;
    for (int conn = 0; conn < 64; ++conn) {
        const net::Packet p = packetFor(conn);
        const int q = policy->rxQueue(0, p);
        ASSERT_GE(q, 0);
        ASSERT_LT(q, 4);
        // Same flow always lands on the same queue.
        EXPECT_EQ(policy->rxQueue(0, p), q);
        queues.insert(q);
    }
    EXPECT_GT(queues.size(), 1u);

    // Round-robin vector placement: queue q -> CPU q % numCpus.
    for (int q = 0; q < 4; ++q)
        EXPECT_EQ(policy->vectorAffinity(0, q), 1u << q);
    // RSS steers interrupts only; processes stay free.
    EXPECT_EQ(policy->taskAffinity(0), 0xffffffffu);
    // And there is no flow table behind it.
    EXPECT_EQ(policy->stats().flowLearns, 0u);
}

TEST(SteeringFlowDirector, LearnsMatchesAndMigrates)
{
    net::SteeringConfig cfg;
    cfg.kind = net::SteeringKind::FlowDirector;
    cfg.numQueues = 4;
    auto policy = net::makeSteeringPolicy(
        cfg, core::AffinityMode::None, topo4());
    EXPECT_EQ(policy->name(), "flow_director");

    const net::Packet p = packetFor(5);

    // Before any transmit the flow is unknown: RSS fallback, a miss.
    const int fallback = policy->rxQueue(0, p);
    EXPECT_EQ(policy->stats().flowMisses, 1u);
    EXPECT_EQ(policy->stats().flowMatches, 0u);

    // A transmit from CPU 2 installs flow -> queue 2 (queue q's vector
    // targets CPU q under the round-robin map).
    policy->noteTransmit(0, p, 2);
    EXPECT_EQ(policy->stats().flowLearns, 1u);
    EXPECT_EQ(policy->rxQueue(0, p), 2);
    EXPECT_EQ(policy->stats().flowMatches, 1u);

    // Re-transmitting from the same CPU is not a migration.
    policy->noteTransmit(0, p, 2);
    EXPECT_EQ(policy->stats().flowMigrations, 0u);

    // The sender moving to CPU 1 re-steers the flow.
    policy->noteTransmit(0, p, 1);
    EXPECT_EQ(policy->stats().flowMigrations, 1u);
    EXPECT_EQ(policy->rxQueue(0, p), 1);

    // Flows are keyed per NIC: NIC 1 never saw this connection.
    const int other = policy->rxQueue(1, p);
    EXPECT_EQ(other, fallback); // same RSS hash fallback
    EXPECT_EQ(policy->stats().flowMisses, 2u);
}

TEST(SteeringFlowDirector, FullTableStopsLearning)
{
    net::SteeringConfig cfg;
    cfg.kind = net::SteeringKind::FlowDirector;
    cfg.numQueues = 2;
    cfg.flowTableSize = 2;
    auto policy = net::makeSteeringPolicy(
        cfg, core::AffinityMode::None, topo4());

    policy->noteTransmit(0, packetFor(0), 0);
    policy->noteTransmit(0, packetFor(1), 1);
    EXPECT_EQ(policy->stats().flowLearns, 2u);

    // Third distinct flow: table is full, it stays on the hash path.
    policy->noteTransmit(0, packetFor(2), 0);
    EXPECT_EQ(policy->stats().flowLearns, 2u);
    policy->rxQueue(0, packetFor(2));
    EXPECT_EQ(policy->stats().flowMisses, 1u);

    // Existing entries still update (migration is not a new learn).
    policy->noteTransmit(0, packetFor(1), 0);
    EXPECT_EQ(policy->stats().flowMigrations, 1u);
}

TEST(SteeringStaticPaper, ReproducesPaperMasks)
{
    net::SteeringConfig cfg; // defaults: StaticPaper, 1 queue
    const net::SteeringTopology t = topo4();

    // IRQ-pinning modes target the paper CPU for the NIC; others leave
    // the Linux 2.4 default of CPU0.
    for (core::AffinityMode m : core::allAffinityModes) {
        auto policy = net::makeSteeringPolicy(cfg, m, t);
        EXPECT_EQ(policy->rxQueue(0, packetFor(0)), 0);
        const std::uint32_t vec = policy->vectorAffinity(2, 0);
        if (core::pinsIrqs(m))
            EXPECT_EQ(vec, 1u << t.paperCpu(2));
        else
            EXPECT_EQ(vec, 0x1u);
        const std::uint32_t task = policy->taskAffinity(3);
        if (core::pinsProcs(m))
            EXPECT_EQ(task, 1u << t.paperCpu(3));
        else
            EXPECT_EQ(task, 0xffffffffu);
    }

    // With 2.6-style rotation enabled the balancer ignores static
    // masks: the policy provisions every installed CPU.
    net::SteeringTopology rot = topo4();
    rot.rotationEnabled = true;
    auto policy =
        net::makeSteeringPolicy(cfg, core::AffinityMode::Irq, rot);
    EXPECT_EQ(policy->vectorAffinity(0, 0), 0xfu);
}

} // namespace
