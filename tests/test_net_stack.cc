/**
 * @file
 * Integration tests of the full SUT network stack: NIC rings and
 * interrupt moderation, driver softirq path, sockets with blocking
 * semantics, end-to-end data conservation against the remote peers.
 */

#include <gtest/gtest.h>

#include "src/core/experiment.hh"
#include "src/core/system.hh"
#include "src/net/peer.hh"

using namespace na;
using namespace na::core;

namespace {

SystemConfig
smallConfig(workload::TtcpMode mode, int conns = 2,
            std::uint32_t msg = 8192)
{
    SystemConfig cfg;
    cfg.numConnections = conns;
    cfg.ttcp().mode = mode;
    cfg.ttcp().msgSize = msg;
    return cfg;
}

TEST(NetStack, ConnectionsEstablish)
{
    System sys(smallConfig(workload::TtcpMode::Transmit));
    EXPECT_TRUE(sys.establishAll(4'000'000'000));
    for (int i = 0; i < sys.numConnections(); ++i) {
        EXPECT_TRUE(sys.socket(i).established());
        EXPECT_EQ(sys.peer(i).tcp().state(),
                  net::TcpState::Established);
    }
}

TEST(NetStack, TransmitConservesBytes)
{
    System sys(smallConfig(workload::TtcpMode::Transmit));
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(40'000'000); // 20 ms
    for (int i = 0; i < sys.numConnections(); ++i) {
        const auto sent = sys.socket(i).tcp().appendedBytes();
        const auto delivered = sys.peer(i).bytesReceived();
        EXPECT_GT(sent, 0u);
        EXPECT_LE(delivered, sent);
        // Everything unaccounted is bounded by one send buffer.
        EXPECT_LE(sent - delivered,
                  sys.config().tcp.sndBufBytes + sys.config().tcp.mss);
        // Delivery is acked data: acked <= delivered guarantees no
        // phantom acks.
        EXPECT_LE(sys.socket(i).tcp().ackedBytes(), delivered);
    }
}

TEST(NetStack, ReceiveConservesBytes)
{
    System sys(smallConfig(workload::TtcpMode::Receive));
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(40'000'000);
    for (int i = 0; i < sys.numConnections(); ++i) {
        const auto peer_sent = sys.peer(i).tcp().appendedBytes();
        const auto delivered = sys.socket(i).tcp().deliveredBytes();
        const auto read = sys.app(i).bytesRead();
        EXPECT_GT(read, 0u);
        EXPECT_LE(delivered, peer_sent);
        EXPECT_LE(read, delivered);
        // Unread data bounded by the receive window.
        EXPECT_LE(delivered - read, sys.config().tcp.rcvWndBytes);
    }
}

TEST(NetStack, SkbPoolNeverLeaks)
{
    System sys(smallConfig(workload::TtcpMode::Transmit));
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(60'000'000);
    // Free + in-TX-queues + RX ring pinned == capacity. Since rings pin
    // rxRingSize each and sockets hold their send queues, just check we
    // never exhausted and frees track allocs.
    EXPECT_EQ(sys.skbPool().exhausted.value(), 0.0);
    EXPECT_LE(sys.skbPool().frees.value(), sys.skbPool().allocs.value());
    const double outstanding =
        sys.skbPool().allocs.value() - sys.skbPool().frees.value();
    // Outstanding skbs bounded by send queues + replenished rings.
    EXPECT_LT(outstanding,
              sys.numConnections() *
                  (sys.config().tcp.sndBufBytes / sys.config().tcp.mss +
                   sys.config().nic.rxRingSize + 16));
}

TEST(NetStack, NicModerationBoundsInterruptRate)
{
    SystemConfig cfg = smallConfig(workload::TtcpMode::Transmit, 1);
    cfg.nic.irqGapTicks = 100'000; // 50 us between interrupts
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    const double before = sys.nic(0).irqsRaised.value();
    const sim::Tick t0 = sys.eventQueue().now();
    sys.runFor(40'000'000);
    const double raised = sys.nic(0).irqsRaised.value() - before;
    const double seconds = sim::ticksToSeconds(
        sys.eventQueue().now() - t0, cfg.platform.freqHz);
    EXPECT_LE(raised, seconds * 2.0e4 * 1.1); // <= 20k/s + slack
    EXPECT_GT(raised, 0.0);
}

TEST(NetStack, TightModerationRaisesIrqRate)
{
    double rates[2] = {0, 0};
    int idx = 0;
    for (sim::Tick gap : {200'000ULL, 8'000ULL}) {
        SystemConfig cfg = smallConfig(workload::TtcpMode::Transmit, 1);
        cfg.nic.irqGapTicks = gap;
        System sys(cfg);
        ASSERT_TRUE(sys.establishAll(4'000'000'000));
        sys.runFor(30'000'000);
        rates[idx++] = sys.nic(0).irqsRaised.value();
    }
    EXPECT_GT(rates[1], rates[0] * 1.5);
}

TEST(NetStack, IsrRunsOnConfiguredCpu)
{
    SystemConfig cfg = smallConfig(workload::TtcpMode::Transmit, 2);
    cfg.affinity = AffinityMode::Irq; // NIC0 -> CPU0, NIC1 -> CPU1
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(30'000'000);
    auto &acct = sys.kernel().accounting();
    // NIC1's ISR symbol must only accumulate on CPU1.
    EXPECT_EQ(acct.get(0, prof::nicIrqFunc(1), prof::Event::Cycles), 0u);
    EXPECT_GT(acct.get(1, prof::nicIrqFunc(1), prof::Event::Cycles), 0u);
    EXPECT_GT(acct.get(0, prof::nicIrqFunc(0), prof::Event::Cycles), 0u);
}

TEST(NetStack, DefaultRoutingSendsAllIrqsToCpu0)
{
    System sys(smallConfig(workload::TtcpMode::Transmit, 2));
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(30'000'000);
    auto &acct = sys.kernel().accounting();
    for (int nic = 0; nic < 2; ++nic) {
        EXPECT_GT(acct.get(0, prof::nicIrqFunc(nic),
                           prof::Event::Cycles),
                  0u);
        EXPECT_EQ(acct.get(1, prof::nicIrqFunc(nic),
                           prof::Event::Cycles),
                  0u);
    }
}

TEST(NetStack, RxPayloadIsAlwaysCacheCold)
{
    // The paper's key copy fact: RX copies miss (DMA), TX copies hit.
    System rx(smallConfig(workload::TtcpMode::Receive, 2, 16384));
    ASSERT_TRUE(rx.establishAll(4'000'000'000));
    rx.beginMeasurement();
    rx.runFor(30'000'000);
    const auto rx_copy_instr = rx.kernel().accounting().byFunc(
        prof::FuncId::CopyToUser, prof::Event::Instructions);
    const auto rx_copy_miss = rx.kernel().accounting().byFunc(
        prof::FuncId::CopyToUser, prof::Event::LlcMisses);
    ASSERT_GT(rx_copy_instr, 0u);
    const double rx_mpi = static_cast<double>(rx_copy_miss) /
                          static_cast<double>(rx_copy_instr);
    EXPECT_GT(rx_mpi, 0.05) << "RX copies must be DMA-cold";
}

TEST(NetStack, SegmentsFlowThroughDriverDemux)
{
    System sys(smallConfig(workload::TtcpMode::Transmit));
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(20'000'000);
    EXPECT_GT(sys.driver().framesDelivered.value(), 0.0);
    EXPECT_GT(sys.driver().softirqRuns.value(), 0.0);
    EXPECT_EQ(sys.driver().socketFor(net::connFlowKey(0)),
              &sys.socket(0));
    EXPECT_EQ(sys.driver().socketFor(net::connFlowKey(99)), nullptr);
}

TEST(NetStack, NagleCoalescesSmallWrites)
{
    // 128-byte writes must leave in (mostly) MSS-sized frames.
    System sys(smallConfig(workload::TtcpMode::Transmit, 1, 128));
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(40'000'000);
    const double frames = sys.nic(0).txFrames.value();
    const auto bytes = sys.peer(0).bytesReceived();
    ASSERT_GT(frames, 0.0);
    const double payload_per_frame =
        static_cast<double>(bytes) / frames;
    // Far larger than 128: Nagle coalesced (frames include ACKs, so
    // the average is diluted; still >> 128).
    EXPECT_GT(payload_per_frame, 400.0);
}

TEST(NetStack, WireLossIsSurvived)
{
    SystemConfig cfg = smallConfig(workload::TtcpMode::Transmit, 2);
    cfg.faults.toPeer.lossProb = 0.02;
    cfg.faults.toSut.lossProb = 0.02;
    cfg.tcp.rtoTicks = 10'000'000; // 5 ms RTO keeps the test fast
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    sys.runFor(80'000'000);
    std::uint64_t delivered = 0;
    std::uint64_t retx = 0;
    for (int i = 0; i < sys.numConnections(); ++i) {
        delivered += sys.peer(i).bytesReceived();
        retx += sys.socket(i).tcp().retransmitCount();
    }
    EXPECT_GT(delivered, 100'000u) << "transfer stalled under loss";
    EXPECT_GT(retx, 0u);
}

/** ttcp-like writer that closes after a fixed volume. */
class CloseAfterLogic : public os::TaskLogic
{
  public:
    CloseAfterLogic(net::Socket &s, sim::Addr buf, std::uint64_t total)
        : s(s), buf(buf), total(total)
    {
    }

    os::StepStatus
    step(os::ExecContext &ctx) override
    {
        if (!s.established()) {
            s.connect(ctx);
            return s.established() ? os::StepStatus::Continue
                                   : os::StepStatus::Blocked;
        }
        if (sent < total) {
            sent += s.send(ctx, buf,
                           static_cast<std::uint32_t>(
                               std::min<std::uint64_t>(total - sent,
                                                       8192)));
            return ctx.task->state == os::TaskState::Blocked
                       ? os::StepStatus::Blocked
                       : os::StepStatus::Continue;
        }
        if (!closed) {
            s.close(ctx);
            closed = true;
        }
        return os::StepStatus::Exited;
    }

    net::Socket &s;
    sim::Addr buf;
    std::uint64_t total;
    std::uint64_t sent = 0;
    bool closed = false;
};

TEST(NetStack, CloseDrainsDataThenFins)
{
    // Hand-built 1-connection rig whose app closes after 256 KiB.
    stats::Group root(nullptr, "");
    sim::EventQueue eq;
    os::Kernel kernel(&root, eq, cpu::PlatformConfig{});
    net::SkbPool pool(&root, kernel, 1024);
    net::Driver driver(&root, kernel, pool);
    net::Wire wire(&root, "wire", eq);
    net::Nic nic(&root, "nic", 0, kernel, pool, wire);
    driver.attachNic(nic);
    net::Socket socket(&root, "sock", kernel, driver, pool,
                       net::connFlowKey(0));
    driver.bindSocket(socket, nic);
    net::RemotePeer peer(&root, "peer", eq, wire, net::connFlowKey(0),
                         net::PeerRole::Sink);
    peer.start();

    CloseAfterLogic logic(
        socket, kernel.addressSpace().alloc(mem::Region::UserData, 8192),
        256 * 1024);
    kernel.createTask("closer", &logic);
    kernel.start();
    eq.runUntil(400'000'000); // 200 ms

    EXPECT_EQ(logic.sent, 256u * 1024u);
    // Everything arrived before the FIN was honored.
    EXPECT_EQ(peer.bytesReceived(), 256u * 1024u);
    EXPECT_TRUE(peer.tcp().finReceived());
    // Peer acked the FIN: the SUT side reached FIN_WAIT2.
    EXPECT_EQ(socket.tcp().state(), net::TcpState::FinWait2);
}

TEST(NetStack, FourConnectionQuadCpuSystemWorks)
{
    SystemConfig cfg = smallConfig(workload::TtcpMode::Transmit, 4);
    cfg.platform.numCpus = 4;
    cfg.affinity = AffinityMode::Full;
    System sys(cfg);
    ASSERT_TRUE(sys.establishAll(4'000'000'000));
    EXPECT_EQ(sys.cpuForConn(0), 0);
    EXPECT_EQ(sys.cpuForConn(3), 3);
    sys.runFor(20'000'000);
    for (int i = 0; i < 4; ++i)
        EXPECT_GT(sys.peer(i).bytesReceived(), 0u);
}

} // namespace
