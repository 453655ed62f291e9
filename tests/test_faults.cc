/**
 * @file
 * Fault-injection subsystem and hardened campaign engine: plan
 * validation, event-queue stall guard, seeded fault-sweep determinism,
 * graceful degradation into PointFailure records, and the results
 * round trip of degraded points.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/core/results_json.hh"
#include "src/core/sweep.hh"
#include "src/core/system.hh"
#include "src/sim/event_queue.hh"
#include "tests/jsonl_roundtrip.hh"

using namespace na;

namespace {

core::RunSchedule
tinySchedule()
{
    core::RunSchedule s;
    s.warmup = 2'000'000;   // 1 ms
    s.measure = 10'000'000; // 5 ms
    return s;
}

sim::FaultPlan
lossyPlan()
{
    sim::FaultPlan p;
    p.tag = "lossy";
    p.toPeer.lossProb = 0.002;
    p.toSut.lossProb = 0.002;
    p.toSut.corruptProb = 0.001;
    p.toPeer.dupProb = 0.002;
    return p;
}

// --- FaultPlan / SystemConfig validation ---------------------------

TEST(FaultPlan, DefaultPlanIsDisabledAndValid)
{
    sim::FaultPlan p;
    EXPECT_FALSE(p.enabled());
    EXPECT_NO_THROW(p.validate("test."));
}

TEST(FaultPlan, RejectsProbabilitiesOutsideUnitInterval)
{
    sim::FaultPlan p;
    p.toSut.lossProb = -0.1;
    EXPECT_THROW(p.validate("test."), std::runtime_error);
    p.toSut.lossProb = 1.5;
    EXPECT_THROW(p.validate("test."), std::runtime_error);
    p.toSut.lossProb = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(p.validate("test."), std::runtime_error);
    p.toSut.lossProb = 1.0; // inclusive bound is legal
    EXPECT_NO_THROW(p.validate("test."));
}

TEST(FaultPlan, RejectsInconsistentBurstAndWindowSettings)
{
    sim::FaultPlan p;
    // Gilbert-Elliott: a bad state you can enter but never leave.
    p.toSut.geGoodToBad = 0.01;
    p.toSut.geBadToGood = 0.0;
    EXPECT_THROW(p.validate("test."), std::runtime_error);
    p.toSut.geBadToGood = 0.2;
    EXPECT_NO_THROW(p.validate("test."));

    // Flap window without a period, and window swallowing the period.
    sim::FaultPlan q;
    q.linkFlapPeriodTicks = 0;
    q.linkFlapDownTicks = 100;
    EXPECT_THROW(q.validate("test."), std::runtime_error);
    q.linkFlapPeriodTicks = 1'000;
    q.linkFlapDownTicks = 1'000;
    EXPECT_THROW(q.validate("test."), std::runtime_error);
    q.linkFlapDownTicks = 100;
    EXPECT_NO_THROW(q.validate("test."));
}

TEST(FaultPlan, SystemConfigValidateCoversFaults)
{
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.faults.irqLossProb = 2.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    EXPECT_THROW(core::System{cfg}, std::runtime_error);
    cfg.faults.irqLossProb = 0.01;
    EXPECT_NO_THROW(cfg.validate());
}

// --- event-queue stall guard ---------------------------------------

class SameTickSpinner : public sim::Event
{
  public:
    explicit SameTickSpinner(sim::EventQueue &eq)
        : sim::Event("same-tick-spinner"), eq(eq)
    {
    }

    // Reschedules itself at the current tick forever: simulated time
    // never advances, which is exactly the livelock the guard exists
    // to catch.
    void process() override { eq.schedule(this, eq.now()); }

  private:
    sim::EventQueue &eq;
};

TEST(StallGuard, ThrowsWhenTimeStopsAdvancing)
{
    sim::EventQueue eq;
    eq.setStallThreshold(1'000);
    SameTickSpinner spinner(eq);
    eq.schedule(&spinner, 50);
    try {
        eq.runUntil(100);
        FAIL() << "stall guard never fired";
    } catch (const std::runtime_error &e) {
        // The diagnostic must name the culprit event.
        EXPECT_NE(std::string(e.what()).find("same-tick-spinner"),
                  std::string::npos)
            << e.what();
    }
}

class TickStepper : public sim::Event
{
  public:
    explicit TickStepper(sim::EventQueue &eq)
        : sim::Event("tick-stepper"), eq(eq)
    {
    }

    void process() override { eq.schedule(this, eq.now() + 1); }

  private:
    sim::EventQueue &eq;
};

TEST(StallGuard, ToleratesArbitrarilyManyAdvancingEvents)
{
    sim::EventQueue eq;
    eq.setStallThreshold(100);
    TickStepper stepper(eq);
    eq.schedule(&stepper, 0);
    // 10'000 events, each at a new tick: far past the threshold in
    // count, but always making progress.
    EXPECT_NO_THROW(eq.runUntil(10'000));
    eq.deschedule(&stepper);
}

// --- seeded fault sweeps: determinism and labels -------------------

std::vector<core::CampaignPoint>
faultSweepPoints()
{
    core::SystemConfig base;
    base.numConnections = 2;
    sim::FaultPlan bursty;
    bursty.tag = "bursty";
    bursty.toSut.geGoodToBad = 0.002;
    bursty.toSut.geBadToGood = 0.1;
    bursty.toSut.geBadLoss = 0.5;
    return core::SweepBuilder()
        .base(base)
        .schedule(tinySchedule())
        .modes({workload::TtcpMode::Transmit,
                workload::TtcpMode::Receive})
        .size(4096)
        .affinities({core::AffinityMode::None, core::AffinityMode::Full})
        .faultPlans({lossyPlan(), bursty})
        .build();
}

TEST(FaultSweep, LabelsCarryThePlanTag)
{
    const std::vector<core::CampaignPoint> points = faultSweepPoints();
    ASSERT_EQ(points.size(), 8u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string &l = points[i].label;
        EXPECT_TRUE(l.find(" flt:lossy") != std::string::npos ||
                    l.find(" flt:bursty") != std::string::npos)
            << l;
    }
}

TEST(FaultSweep, DeterministicAcrossRunsAndThreadCounts)
{
    const std::vector<core::CampaignPoint> points = faultSweepPoints();
    core::Campaign::Options serial;
    serial.numThreads = 1;
    core::Campaign::Options threaded;
    threaded.numThreads = 2;

    const core::ResultSet a = core::Campaign::run(points, serial);
    const core::ResultSet b = core::Campaign::run(points, serial);
    const core::ResultSet c = core::Campaign::run(points, threaded);
    ASSERT_EQ(a.size(), points.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FALSE(a.result(i).failed) << points[i].label;
        EXPECT_GT(a.result(i).payloadBytes, 0u) << points[i].label;
        for (const core::ResultSet *other : {&b, &c}) {
            EXPECT_EQ(a.result(i).payloadBytes,
                      other->result(i).payloadBytes)
                << points[i].label;
            EXPECT_EQ(a.result(i).throughputMbps,
                      other->result(i).throughputMbps)
                << points[i].label;
            for (std::size_t e = 0; e < prof::numEvents; ++e) {
                EXPECT_EQ(a.result(i).eventTotals[e],
                          other->result(i).eventTotals[e])
                    << points[i].label;
            }
        }
    }
}

TEST(FaultInjection, InjectorCountersFireAndFaultFreePathHasNone)
{
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.faults = lossyPlan();
    core::System sys(cfg);
    const core::RunResult r =
        core::Experiment::measure(sys, tinySchedule());
    EXPECT_GT(r.payloadBytes, 0u);
    double injected = 0;
    for (int i = 0; i < sys.numConnections(); ++i) {
        const net::FaultInjector *fi = sys.faultInjector(i);
        ASSERT_NE(fi, nullptr);
        injected += fi->dropsLoss() + fi->corrupts() + fi->dups();
    }
    EXPECT_GT(injected, 0.0);

    core::SystemConfig clean;
    clean.numConnections = 2;
    core::System cleanSys(clean);
    EXPECT_EQ(cleanSys.faultInjector(0), nullptr);
}

// --- retry seeds ---------------------------------------------------

TEST(RetrySeed, AttemptZeroMatchesPointSeedExactly)
{
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(core::Campaign::retrySeed(12345, i, 0),
                  core::Campaign::pointSeed(12345, i));
    }
}

TEST(RetrySeed, LaterAttemptsDiverge)
{
    const std::uint64_t s0 = core::Campaign::retrySeed(12345, 3, 0);
    const std::uint64_t s1 = core::Campaign::retrySeed(12345, 3, 1);
    const std::uint64_t s2 = core::Campaign::retrySeed(12345, 3, 2);
    EXPECT_NE(s0, s1);
    EXPECT_NE(s1, s2);
    EXPECT_NE(s0, s2);
}

// --- graceful degradation + schema-v4 round trip -------------------

std::vector<core::CampaignPoint>
doomedPoints()
{
    core::SystemConfig base;
    base.numConnections = 2;
    base.faults.tag = "blackhole";
    base.faults.toSut.lossProb = 1.0; // nothing ever arrives
    core::RunSchedule sched = tinySchedule();
    sched.establishDeadline = 4'000'000; // fail fast: 2 ms
    return core::SweepBuilder()
        .base(base)
        .schedule(sched)
        .size(4096)
        .affinity(core::AffinityMode::Full)
        .build();
}

TEST(Degradation, ExhaustedRetriesBecomeStructuredPointFailures)
{
    core::Campaign::Options opts;
    opts.maxAttempts = 2;
    const core::ResultSet rs =
        core::Campaign::run(doomedPoints(), opts);
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs.failureCount(), 1u);

    const core::RunResult &r = rs.result(0);
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.failure.attempts, 2);
    EXPECT_NE(r.failure.reason.find("establish"), std::string::npos);
    EXPECT_FALSE(r.failure.configSummary.empty());
    EXPECT_GT(r.failure.ticksReached, 0u);
}

TEST(ResultsJsonV5, DegradedPointsRoundTripWithFaultLabel)
{
    core::Campaign::Options opts;
    opts.maxAttempts = 2;
    const core::ResultSet rs =
        core::Campaign::run(doomedPoints(), opts);
    ASSERT_EQ(rs.failureCount(), 1u);

    std::stringstream ss;
    core::writeResultsJson(ss, rs);
    EXPECT_NE(ss.str().find("\"schema_version\": " +
                            std::to_string(core::resultsSchemaVersion)),
              std::string::npos);

    const std::vector<core::JsonRunRecord> parsed =
        test::jsonlRoundTrip(rs);
    ASSERT_EQ(parsed.size(), 1u);
    const core::JsonRunRecord &rec = parsed[0];
    EXPECT_EQ(rec.faults, "blackhole");
    EXPECT_TRUE(rec.result.failed);
    EXPECT_EQ(rec.result.failure.reason, rs.result(0).failure.reason);
    EXPECT_EQ(rec.result.failure.configSummary,
              rs.result(0).failure.configSummary);
    EXPECT_EQ(rec.result.failure.ticksReached,
              rs.result(0).failure.ticksReached);
    EXPECT_EQ(rec.result.failure.attempts,
              rs.result(0).failure.attempts);
}

// --- TX ring-full visibility ---------------------------------------

TEST(RingFull, TinyTxRingSurfacesDropsInRunResult)
{
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    cfg.ttcp().msgSize = 65536;
    cfg.nic.txRingSize = 4; // far below the offered load
    // Recovery from a ring-full drop is pure RTO (no ACK clock once
    // the whole burst is gone), and kernel timers only run from the
    // periodic tick — so both must fit the 5 ms window, which is
    // shorter than the default 200 ms RTO and 10 ms tick.
    cfg.tcp.rtoTicks = 200'000;              // 0.1 ms RTO floor
    cfg.platform.timerTickCycles = 100'000;  // 0.05 ms tick
    core::System sys(cfg);
    const core::RunResult r =
        core::Experiment::measure(sys, tinySchedule());
    EXPECT_GT(r.payloadBytes, 0u)
        << "backpressure must degrade, not wedge, the sender";
    EXPECT_GT(r.txDropsRingFull, 0u);
}

} // namespace
