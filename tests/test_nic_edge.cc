/**
 * @file
 * NIC edge cases: ring overflow, interrupt masking, replenish failure,
 * TX-completion skb freeing — driven through small assembled systems.
 */

#include <gtest/gtest.h>

#include "src/core/experiment.hh"
#include "src/core/system.hh"

using namespace na;
using namespace na::core;

namespace {

TEST(NicEdge, TinyRxRingDropsAndTcpRecovers)
{
    SystemConfig cfg;
    cfg.numConnections = 1;
    cfg.ttcp().mode = workload::TtcpMode::Receive;
    cfg.ttcp().msgSize = 65536;
    cfg.nic.rxRingSize = 8; // absurdly small: bursts overflow
    cfg.nic.irqGapTicks = 400'000; // slow service: ring backs up
    cfg.tcp.rtoTicks = 10'000'000;
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(100'000'000);

    // Drops happened, yet the app still made forward progress and
    // never saw out-of-order data.
    EXPECT_GT(sys.nic(0).rxDropsRingFull.value(), 0.0);
    EXPECT_GT(sys.app(0).bytesRead(), 20'000u);
    EXPECT_GT(sys.peer(0).tcp().retransmitCount(), 0u);
}

TEST(NicEdge, InterruptStaysMaskedUntilDrained)
{
    SystemConfig cfg;
    cfg.numConnections = 1;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(20'000'000);
    // IRQs raised must be far fewer than frames handled (batching).
    EXPECT_LT(sys.nic(0).irqsRaised.value(),
              sys.nic(0).rxFrames.value() + sys.nic(0).txFrames.value());
}

TEST(NicEdge, ControlSkbsFreedOnTxComplete)
{
    // RX mode: the SUT sends only ACK/control frames; their skbs are
    // freed at TX completion. Without that path the pool would drain.
    SystemConfig cfg;
    cfg.numConnections = 1;
    cfg.ttcp().mode = workload::TtcpMode::Receive;
    cfg.skbPoolSlots = cfg.nic.rxRingSize + 64; // tight
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(60'000'000);
    EXPECT_GT(sys.socket(0).segsOut.value(), 100.0);
    EXPECT_EQ(sys.skbPool().exhausted.value(), 0.0)
        << "control skbs leaked";
}

TEST(NicEdge, MmioAndRingsLiveInTheRightRegions)
{
    SystemConfig cfg;
    cfg.numConnections = 1;
    System sys(cfg);
    EXPECT_TRUE(mem::AddressAllocator::isUncacheable(
        sys.nic(0).mmioAddr()));
}

TEST(ExperimentApi, EstablishDeadlineFailureReturnsFalse)
{
    SystemConfig cfg;
    cfg.numConnections = 8;
    System sys(cfg);
    // 1000 ticks is far too short for even one handshake RTT.
    EXPECT_FALSE(sys.establishAll(1000));
}

TEST(ExperimentApi, ExtractComputesDerivedMetrics)
{
    SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.ttcp().msgSize = 8192;
    System sys(cfg);
    RunSchedule sched;
    sched.warmup = 10'000'000;
    sched.measure = 20'000'000;
    const RunResult r = Experiment::measure(sys, sched);

    // throughput == bytes*8/seconds
    EXPECT_NEAR(r.throughputMbps,
                static_cast<double>(r.payloadBytes) * 8.0 / r.seconds /
                    1e6,
                0.01);
    // ghzPerGbps == aggregate busy GHz / Gbps
    double busy = 0;
    for (int c = 0; c < cfg.platform.numCpus; ++c)
        busy += sys.kernel().core(c).counters.busyCycles.value();
    const double used_ghz = busy / r.seconds / 1e9;
    EXPECT_NEAR(r.ghzPerGbps, used_ghz / (r.throughputMbps / 1000.0),
                r.ghzPerGbps * 0.01);
    // eventsPerByte consistent with totals.
    EXPECT_NEAR(r.eventsPerByte(prof::Event::Cycles),
                static_cast<double>(r.overall.cycles) /
                    static_cast<double>(r.payloadBytes),
                1e-9);
}

TEST(ExperimentApi, BeginMeasurementResetsStats)
{
    SystemConfig cfg;
    cfg.numConnections = 1;
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(20'000'000);
    EXPECT_GT(sys.kernel().accounting().total(prof::Event::Cycles), 0u);
    sys.beginMeasurement();
    EXPECT_EQ(sys.kernel().accounting().total(prof::Event::Cycles), 0u);
    EXPECT_EQ(sys.kernel().core(0).counters.busyCycles.value(), 0.0);
    // Warmup-established connections keep working after the reset.
    sys.runFor(20'000'000);
    EXPECT_GT(sys.kernel().accounting().total(prof::Event::Cycles), 0u);
}

TEST(ExperimentApi, UtilizationNeverExceedsOne)
{
    SystemConfig cfg;
    cfg.numConnections = 4;
    cfg.ttcp().msgSize = 1024;
    System sys(cfg);
    const RunResult r = Experiment::measure(sys);
    for (int c = 0; c < cfg.platform.numCpus; ++c) {
        EXPECT_LE(r.utilPerCpu[static_cast<std::size_t>(c)], 1.0001);
        // busy+idle == wall time within one dispatch of slop.
        const auto &pc = sys.kernel().core(c).counters;
        EXPECT_NEAR(pc.totalCycles(), 100'000'000.0, 2'000'000.0);
    }
}

} // namespace
