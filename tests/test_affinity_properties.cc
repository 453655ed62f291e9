/**
 * @file
 * Property tests over the full experiment pipeline: invariants that
 * must hold for every (mode, size, direction) combination, plus the
 * paper's headline orderings.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/core/experiment.hh"

using namespace na;
using namespace na::core;

namespace {

RunSchedule
quickSchedule()
{
    RunSchedule s;
    s.warmup = 20'000'000;  // 10 ms
    s.measure = 40'000'000; // 20 ms
    return s;
}

using Combo = std::tuple<workload::TtcpMode, std::uint32_t, AffinityMode>;

class AffinityProperty : public ::testing::TestWithParam<Combo>
{
};

TEST_P(AffinityProperty, RunInvariantsHold)
{
    const auto [mode, size, aff] = GetParam();
    SystemConfig cfg;
    cfg.ttcp().mode = mode;
    cfg.ttcp().msgSize = size;
    cfg.affinity = aff;

    System sys(cfg);
    const RunResult r = Experiment::measure(sys, quickSchedule());

    // Work happened and was measured.
    EXPECT_GT(r.throughputMbps, 50.0);
    EXPECT_GT(r.payloadBytes, 0u);
    EXPECT_NEAR(r.seconds, 0.02, 0.001);

    // Utilization is a fraction, and the box is essentially saturated.
    for (int c = 0; c < cfg.platform.numCpus; ++c) {
        EXPECT_GE(r.utilPerCpu[static_cast<std::size_t>(c)], 0.0);
        EXPECT_LE(r.utilPerCpu[static_cast<std::size_t>(c)], 1.0);
    }
    EXPECT_GT(r.cpuUtil, 0.5);

    // Per-bin cycles sum to the overall cycles.
    std::uint64_t bin_cycles = 0;
    for (const auto &b : r.bins)
        bin_cycles += b.cycles;
    EXPECT_EQ(bin_cycles, r.overall.cycles);

    // Accounted cycles equal measured busy time (within dispatch slop).
    double busy = 0;
    for (int c = 0; c < cfg.platform.numCpus; ++c) {
        busy += r.utilPerCpu[static_cast<std::size_t>(c)] *
                static_cast<double>(quickSchedule().measure);
    }
    EXPECT_NEAR(static_cast<double>(r.overall.cycles), busy,
                busy * 0.02);

    // Event sanity.
    EXPECT_LE(r.overall.brMispredicts, r.overall.branches);
    EXPECT_LE(r.overall.branches, r.overall.instructions);
    EXPECT_GT(r.overall.cpi, 1.0);
    EXPECT_LT(r.overall.cpi, 60.0);
    EXPECT_GT(r.ghzPerGbps, 0.1);

    // Affinity masks honored.
    if (pinsProcs(aff)) {
        for (int i = 0; i < sys.numConnections(); ++i) {
            EXPECT_EQ(sys.task(i).lastRanCpu, sys.cpuForConn(i))
                << "task " << i << " escaped its pin";
        }
    }
    if (pinsIrqs(aff)) {
        for (int i = 0; i < sys.numConnections(); ++i) {
            EXPECT_EQ(sys.kernel().irqController().routeOf(
                          sys.nic(i).irqVector()),
                      sys.cpuForConn(i));
        }
    }

    // Conservation at the sinks.
    if (mode == workload::TtcpMode::Transmit) {
        for (int i = 0; i < sys.numConnections(); ++i) {
            EXPECT_LE(sys.peer(i).bytesReceived(),
                      sys.socket(i).tcp().appendedBytes());
        }
    }

    // Full affinity on a block layout: no cross-CPU wakeups at all.
    if (aff == AffinityMode::Full) {
        EXPECT_EQ(r.ipis, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AffinityProperty,
    ::testing::Combine(
        ::testing::Values(workload::TtcpMode::Transmit,
                          workload::TtcpMode::Receive),
        ::testing::Values(128u, 4096u, 65536u),
        ::testing::Values(AffinityMode::None, AffinityMode::Irq,
                          AffinityMode::Proc, AffinityMode::Full)),
    [](const ::testing::TestParamInfo<Combo> &info) {
        const workload::TtcpMode mode = std::get<0>(info.param);
        const std::uint32_t size = std::get<1>(info.param);
        const AffinityMode aff = std::get<2>(info.param);
        std::string name =
            mode == workload::TtcpMode::Transmit ? "TX" : "RX";
        name += std::to_string(size);
        switch (aff) {
          case AffinityMode::None: name += "_none"; break;
          case AffinityMode::Irq:  name += "_irq"; break;
          case AffinityMode::Proc: name += "_proc"; break;
          case AffinityMode::Full: name += "_full"; break;
        }
        return name;
    });

TEST(AffinityProperty, RotationNeverLeavesProvisionedMask)
{
    // 2.6-style IRQ rotation walks the *allowed* set, not all CPUs: a
    // vector must never be routed to a CPU outside the mask its
    // steering policy provisioned, no matter how long rotation runs.
    SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.platform.numCpus = 4;
    cfg.ttcp().mode = workload::TtcpMode::Receive;
    cfg.ttcp().msgSize = 65536;
    cfg.affinity = AffinityMode::None;
    cfg.irqRotationTicks = 500'000;
    cfg.steering.kind = net::SteeringKind::Rss;
    cfg.steering.numQueues = 2; // queue 1's vector: CPU 1, not CPU0

    System sys(cfg);
    sys.runFor(2'000'000); // let traffic and rotation epochs start

    for (int step = 0; step < 12; ++step) {
        sys.runFor(750'000); // deliberately not a multiple of the epoch
        for (int i = 0; i < sys.numConnections(); ++i) {
            for (int q = 0; q < sys.nic(i).numRxQueues(); ++q) {
                const int vec = sys.nic(i).queueVector(q);
                const std::uint32_t mask =
                    sys.steering().vectorAffinity(i, q);
                const sim::CpuId cpu =
                    sys.kernel().irqController().routeOf(vec);
                EXPECT_NE(mask & (1u << cpu), 0u)
                    << "nic " << i << " queue " << q << " routed to CPU "
                    << static_cast<int>(cpu) << " outside mask 0x"
                    << std::hex << mask << " at step " << std::dec
                    << step;
            }
        }
    }
}

TEST(AffinityOrdering, PaperHeadlinesAt64KbTx)
{
    // The paper's central result: Full > IRQ > {Proc ~ None} on
    // throughput; full affinity cuts the cost metric substantially.
    std::array<RunResult, 4> r;
    int i = 0;
    for (AffinityMode m : allAffinityModes) {
        SystemConfig cfg;
        cfg.ttcp().mode = workload::TtcpMode::Transmit;
        cfg.ttcp().msgSize = 65536;
        cfg.affinity = m;
        r[static_cast<std::size_t>(i++)] =
            Experiment::run(cfg, quickSchedule());
    }
    const RunResult &none = r[0];
    const RunResult &irq = r[1];
    const RunResult &proc = r[2];
    const RunResult &full = r[3];

    // Full affinity wins big (paper: ~29-30%).
    EXPECT_GT(full.throughputMbps, none.throughputMbps * 1.12);
    // IRQ affinity alone captures most of the gain (paper: up to 25%).
    EXPECT_GT(irq.throughputMbps, none.throughputMbps * 1.08);
    EXPECT_GE(full.throughputMbps, irq.throughputMbps * 0.97);
    // Process affinity alone is a wash (paper: "little impact").
    EXPECT_NEAR(proc.throughputMbps / none.throughputMbps, 1.0, 0.08);
    // Cost falls with full affinity.
    EXPECT_LT(full.ghzPerGbps, none.ghzPerGbps * 0.92);
}

TEST(AffinityOrdering, FullAffinityCutsClearsAndMissesPerByte)
{
    SystemConfig cfg;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    cfg.ttcp().msgSize = 65536;
    cfg.affinity = AffinityMode::None;
    const RunResult none = Experiment::run(cfg, quickSchedule());
    cfg.affinity = AffinityMode::Full;
    const RunResult full = Experiment::run(cfg, quickSchedule());

    EXPECT_LT(full.eventsPerByte(prof::Event::MachineClears),
              none.eventsPerByte(prof::Event::MachineClears));
    EXPECT_LT(full.eventsPerByte(prof::Event::LlcMisses),
              none.eventsPerByte(prof::Event::LlcMisses));
    // No affinity pays for cross-CPU wakeups with IPIs.
    EXPECT_GT(none.ipis, 0u);
}

TEST(AffinityOrdering, CostFallsWithTransferSize)
{
    // Fig 4's monotone shape: per-bit cost shrinks as messages grow.
    double last = 1e9;
    for (std::uint32_t size : {128u, 1024u, 8192u, 65536u}) {
        SystemConfig cfg;
        cfg.ttcp().mode = workload::TtcpMode::Transmit;
        cfg.ttcp().msgSize = size;
        cfg.affinity = AffinityMode::Full;
        const RunResult r = Experiment::run(cfg, quickSchedule());
        EXPECT_LT(r.ghzPerGbps, last)
            << "cost not monotone at size " << size;
        last = r.ghzPerGbps;
    }
}

TEST(AffinityOrdering, DeterministicGivenSeed)
{
    SystemConfig cfg;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    cfg.ttcp().msgSize = 8192;
    cfg.affinity = AffinityMode::None;
    const RunResult a = Experiment::run(cfg, quickSchedule());
    const RunResult b = Experiment::run(cfg, quickSchedule());
    EXPECT_EQ(a.payloadBytes, b.payloadBytes);
    EXPECT_EQ(a.overall.cycles, b.overall.cycles);
    EXPECT_EQ(a.eventTotals, b.eventTotals);

    cfg.platform.seed = 777;
    const RunResult c = Experiment::run(cfg, quickSchedule());
    EXPECT_NE(a.overall.cycles, c.overall.cycles);
}

TEST(AffinityOrdering, RxShowsCpu0BottleneckWithoutAffinity)
{
    SystemConfig cfg;
    cfg.ttcp().mode = workload::TtcpMode::Receive;
    cfg.ttcp().msgSize = 65536;
    cfg.affinity = AffinityMode::None;
    const RunResult r = Experiment::run(cfg, quickSchedule());
    // CPU0 carries all interrupt+softirq work: it must be the hotter
    // CPU (paper Section 5 / the 4P discussion).
    EXPECT_GE(r.utilPerCpu[0], r.utilPerCpu[1]);
}

} // namespace
