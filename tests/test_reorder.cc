/**
 * @file
 * Receive-path reordering: the socket-layer fixes that used to mask
 * the Flow Director pathology, the Eifel spurious-retransmit
 * classifier, the sender-hop migration driver, and the schema-v6
 * "reorder" result block.
 *
 *  - promoteInOrder's explicit promoted-floor flag: a peer ISN at the
 *    top of the 64-bit space makes the first payload sequence number
 *    exactly 0, which the old 0-sentinel treated as "handshake not
 *    done" and never promoted.
 *  - Slot-exact skb accounting when out-of-order stash entries
 *    duplicate, overlap, or supersede each other (the double-charge
 *    fix).
 *  - Single-forward-pass in-order delivery: adversarial arrival
 *    orders all converge to byte-exact delivery.
 *  - Eifel: a fast retransmit whose gap is filled by the delayed
 *    original (old TSval echoed) is classified spurious; one whose
 *    retransmission fills the gap itself (genuine loss) never is.
 *    Karn's rule holds across the ambiguous ACK either way.
 *  - sim::FaultPlan reorder injection composes with the counters and
 *    stays seeded-deterministic end to end.
 *  - workload::FlowMixConfig::senderHopTicks forces deterministic
 *    task migrations and is off (zero hops) by default.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/results_json.hh"
#include "src/core/system.hh"
#include "src/net/driver.hh"
#include "src/net/nic.hh"
#include "src/net/socket.hh"
#include "src/net/wire.hh"
#include "src/os/exec_context.hh"
#include "src/os/kernel.hh"
#include "tests/jsonl_roundtrip.hh"

using namespace na;
using namespace na::net;

namespace {

/** Establish a pair by direct segment exchange at a given tick. */
void
establishPair(TcpConnection &a, TcpConnection &b, sim::Tick now)
{
    a.openActive();
    b.openPassive();
    std::vector<Segment> syn = a.pullSegments(now);
    std::vector<Segment> synack;
    b.onSegment(syn.at(0), now, synack);
    std::vector<Segment> ack;
    a.onSegment(synack.at(0), now, ack);
    std::vector<Segment> none;
    b.onSegment(ack.at(0), now, none);
    ASSERT_EQ(a.state(), TcpState::Established);
}

/** Deliver @p seg to @p b, collecting any immediate replies. */
std::vector<Segment>
deliver(TcpConnection &b, const Segment &seg, sim::Tick now)
{
    std::vector<Segment> replies;
    b.onSegment(seg, now, replies);
    b.consume(b.readableBytes()); // keep the window open
    return replies;
}

TcpConfig
bulkConfig()
{
    TcpConfig cfg;
    cfg.rtoTicks = 100'000'000; // keep the RTO timer out of the play
    cfg.initialCwndSegs = 64;
    cfg.sndBufBytes = 256 * 1024;
    cfg.rcvWndBytes = 256 * 1024;
    return cfg;
}

/**
 * Hand-built one-socket SUT rig driven entirely from softirq context:
 * frames are injected straight into Socket::onSegmentSoftirq with
 * pool-allocated skbs, so the tests can meter the slab slot-exactly.
 * Side B of the wire is a sink — the socket's own transmissions
 * (SYN-ACK, dup ACKs, window updates) leave and are TX-completed, but
 * nothing answers.
 */
class SocketRigTest : public ::testing::Test
{
  protected:
    SocketRigTest()
        : kernel(&root, eq, cpu::PlatformConfig{}),
          pool(&root, kernel, 1024),
          driver(&root, kernel, pool),
          wire(&root, "wire", eq),
          nic(&root, "nic", 0, kernel, pool, wire),
          socket(&root, "sock", kernel, driver, pool, connFlowKey(0)),
          ctx(kernel, kernel.processor(0), nullptr),
          userBuf(kernel.addressSpace().alloc(mem::Region::UserData,
                                              65536))
    {
        driver.attachNic(nic);
        driver.bindSocket(socket, nic);
        wire.attachB([](const Packet &) {});
        socket.setNonBlocking(true); // recv == EAGAIN, never sleeps
    }

    /** Run the event queue so in-flight control skbs TX-complete. */
    void
    settle(sim::Tick ticks = 5'000'000)
    {
        eq.runUntil(eq.now() + ticks);
    }

    /** Server-side handshake against a synthetic client at @p isn. */
    void
    establishAt(std::uint64_t isn)
    {
        socket.beginPassive();
        Packet syn;
        syn.flow = connFlowKey(0);
        syn.seg.seq = isn;
        syn.seg.flags = flagSyn;
        syn.seg.wnd = 64 * 1024;
        socket.onSegmentSoftirq(ctx, syn, pool.alloc(ctx));

        Packet ack;
        ack.flow = connFlowKey(0);
        ack.seg.seq = isn + 1; // wraps to 0 for isn == ~0
        ack.seg.ack = 2;       // covers the SUT's SYN (iss 1)
        ack.seg.flags = flagAck;
        ack.seg.wnd = 64 * 1024;
        socket.onSegmentSoftirq(ctx, ack, pool.alloc(ctx));
        ASSERT_TRUE(socket.established());
        settle();
    }

    /** Inject one data frame carrying [seq, seq+len). */
    void
    injectData(std::uint64_t seq, std::uint32_t len)
    {
        Packet pkt;
        pkt.flow = connFlowKey(0);
        pkt.seg.seq = seq;
        pkt.seg.ack = 2;
        pkt.seg.len = len;
        pkt.seg.flags = flagAck;
        pkt.seg.wnd = 64 * 1024;
        socket.onSegmentSoftirq(ctx, pkt, pool.alloc(ctx));
    }

    int
    drain()
    {
        const int n = socket.recv(ctx, userBuf, 65536);
        settle(); // window-update ACK's control skb returns to the pool
        return n;
    }

    stats::Group root{nullptr, ""};
    sim::EventQueue eq;
    os::Kernel kernel;
    SkbPool pool;
    Driver driver;
    Wire wire;
    Nic nic;
    Socket socket;
    os::ExecContext ctx;
    sim::Addr userBuf;
};

TEST_F(SocketRigTest, FirstPayloadAtSequenceZeroIsPromoted)
{
    // A peer ISN at the very top of the sequence space: the SYN
    // consumes ~0, so the first payload byte is seq 0 — the value the
    // old promoted-floor 0-sentinel confused with "handshake not
    // done", leaving every chunk stranded in the OOO stash.
    establishAt(~0ULL);
    const int base = pool.freeCount();

    // Arrives out of order first: stashed, one slot held.
    injectData(1448, 1448);
    settle();
    EXPECT_EQ(socket.tcp().oooArrivalCount(), 1u);
    EXPECT_EQ(pool.freeCount(), base - 1);

    // The seq-0 gap fill must promote both chunks.
    injectData(0, 1448);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 2);
    EXPECT_EQ(drain(), 2 * 1448);
    EXPECT_EQ(pool.freeCount(), base);
    EXPECT_EQ(socket.tcp().deliveredBytes(), 2u * 1448u);

    // A full retransmission of the seq-0 segment is recognized as
    // already promoted (dup trim), not re-queued.
    injectData(0, 1448);
    settle();
    EXPECT_EQ(pool.freeCount(), base);
    EXPECT_EQ(drain(), 0); // EAGAIN: nothing new
}

TEST_F(SocketRigTest, OverlappingStashesAccountSlotsExactly)
{
    establishAt(1000);
    const std::uint64_t s = 1001; // first payload seq
    const int base = pool.freeCount();

    // An OOO chunk holds exactly one slot...
    injectData(s + 1448, 724);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 1);

    // ...its exact duplicate is freed on arrival (the double-charge
    // bug stashed both until promotion)...
    injectData(s + 1448, 724);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 1);

    // ...a longer chunk at the same start supersedes it, freeing the
    // shorter one...
    injectData(s + 1448, 1448);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 1);

    // ...and a chunk fully inside the stashed range is redundant.
    injectData(s + 2172, 724);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 1);

    // Gap fill promotes the head chunk plus the one surviving stash.
    injectData(s, 1448);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 2);
    EXPECT_EQ(socket.tcp().readableBytes(), 2u * 1448u);
    EXPECT_EQ(drain(), 2 * 1448);
    EXPECT_EQ(pool.freeCount(), base);

    // A retransmission overlapping promoted data is prefix-trimmed:
    // only the 724 fresh bytes reach the application.
    injectData(s + 2172, 1448);
    settle();
    EXPECT_EQ(pool.freeCount(), base - 1);
    EXPECT_EQ(drain(), 724);
    EXPECT_EQ(pool.freeCount(), base);

    // Byte-exact: every payload byte delivered exactly once.
    EXPECT_EQ(socket.appBytesRead.value(),
              static_cast<double>(2 * 1448 + 724));
    EXPECT_EQ(socket.tcp().deliveredBytes(), 2u * 1448u + 724u);
}

/** Deliver @p n MSS segments to a fresh pair in @p order. */
std::uint64_t
deliverInOrderOf(const std::vector<std::size_t> &order,
                 std::uint64_t &ooo_arrivals,
                 std::array<std::uint64_t, 8> &depth_hist)
{
    TcpConnection a(bulkConfig());
    TcpConnection b(bulkConfig());
    establishPair(a, b, 0);
    const std::size_t n =
        *std::max_element(order.begin(), order.end()) + 1;
    a.appendSendData(static_cast<std::uint32_t>(n) * 1448);
    std::vector<Segment> segs = a.pullSegments(1'000);
    EXPECT_EQ(segs.size(), n);
    sim::Tick t = 2'000;
    for (std::size_t idx : order)
        deliver(b, segs.at(idx), t += 100);
    ooo_arrivals = b.oooArrivalCount();
    depth_hist = b.oooDepthHistogram();
    return b.deliveredBytes();
}

TEST(ReorderDelivery, AdversarialArrivalOrdersConvergeByteExact)
{
    constexpr std::size_t n = 24;
    std::uint64_t ooo = 0;
    std::array<std::uint64_t, 8> hist{};

    // Strict reverse: everything stalls behind the first segment.
    std::vector<std::size_t> reverse(n);
    for (std::size_t i = 0; i < n; ++i)
        reverse[i] = n - 1 - i;
    EXPECT_EQ(deliverInOrderOf(reverse, ooo, hist), n * 1448u);
    EXPECT_EQ(ooo, n - 1);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), 0ull), ooo);

    // Evens then odds: every odd fill releases exactly one even.
    std::vector<std::size_t> evenOdd;
    for (std::size_t i = 0; i < n; i += 2)
        evenOdd.push_back(i);
    for (std::size_t i = 1; i < n; i += 2)
        evenOdd.push_back(i);
    EXPECT_EQ(deliverInOrderOf(evenOdd, ooo, hist), n * 1448u);
    EXPECT_GT(ooo, 0u);

    // Deterministic shuffle (fixed LCG), then the same shuffle with
    // every segment delivered twice: duplicates must change nothing.
    std::vector<std::size_t> shuffled(n);
    for (std::size_t i = 0; i < n; ++i)
        shuffled[i] = i;
    std::uint64_t x = 88172645463325252ull;
    for (std::size_t i = n - 1; i > 0; --i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(shuffled[i], shuffled[(x >> 33) % (i + 1)]);
    }
    EXPECT_EQ(deliverInOrderOf(shuffled, ooo, hist), n * 1448u);

    std::vector<std::size_t> doubled;
    for (std::size_t idx : shuffled) {
        doubled.push_back(idx);
        doubled.push_back(idx);
    }
    EXPECT_EQ(deliverInOrderOf(doubled, ooo, hist), n * 1448u);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), 0ull), ooo);
}

TEST(ReorderEifel, SpuriousRetransmitWhenDelayedOriginalFillsGap)
{
    TcpConfig cfg;
    cfg.rtoTicks = 100'000'000;
    cfg.initialCwndSegs = 8;
    TcpConnection a(cfg);
    TcpConnection b(cfg);
    establishPair(a, b, 0);

    a.appendSendData(5 * 1448);
    std::vector<Segment> segs = a.pullSegments(1'000);
    ASSERT_EQ(segs.size(), 5u);
    EXPECT_EQ(segs[1].tsVal, 1'000u); // originals carry the pull tick

    // segs[0] lands and is acked, so later dup ACKs are true dups.
    std::vector<Segment> none;
    std::vector<Segment> first = deliver(b, segs[0], 2'000);
    if (first.empty())
        b.onDelackTimer(2'000, first);
    ASSERT_FALSE(first.empty());
    a.onSegment(first.back(), 2'050, none);
    const sim::Tick srtt = a.srttTicks();

    // segs[1] is merely delayed; 2..4 draw immediate dup ACKs.
    std::vector<Segment> dups;
    for (std::size_t k = 2; k < 5; ++k) {
        std::vector<Segment> replies =
            deliver(b, segs[k], 2'000 + 100 * static_cast<int>(k));
        ASSERT_FALSE(replies.empty());
        dups.push_back(replies.back());
    }
    a.onSegment(dups[0], 3'000, none);
    a.onSegment(dups[1], 3'100, none);
    EXPECT_EQ(a.retransmitCount(), 0u); // two dups: hold fire
    a.onSegment(dups[2], 3'200, none);
    std::vector<Segment> rtx = a.pullSegments(3'400);
    ASSERT_FALSE(rtx.empty());
    EXPECT_EQ(rtx[0].seq, segs[1].seq);
    EXPECT_EQ(a.retransmitCount(), 1u); // exactly the third triggers
    EXPECT_GT(rtx[0].tsVal, segs[1].tsVal);

    // The *original* wins the race: its cumulative ACK echoes the old
    // TSval, proving the fast retransmit was unnecessary.
    std::vector<Segment> replies = deliver(b, segs[1], 4'000);
    if (replies.empty())
        b.onDelackTimer(4'000, replies);
    ASSERT_FALSE(replies.empty());
    a.onSegment(replies.back(), 4'100, none);
    EXPECT_EQ(a.spuriousRetransmitCount(), 1u);
    // Karn: the ambiguous cumulative ACK takes no RTT sample.
    EXPECT_EQ(a.srttTicks(), srtt);

    // The late retransmission arrives as a pure duplicate; nothing
    // further is classified.
    deliver(b, rtx[0], 4'200);
    EXPECT_EQ(a.spuriousRetransmitCount(), 1u);
}

TEST(ReorderEifel, GenuineLossIsNeverClassifiedSpurious)
{
    TcpConfig cfg;
    cfg.rtoTicks = 100'000'000;
    cfg.initialCwndSegs = 8;
    TcpConnection a(cfg);
    TcpConnection b(cfg);
    establishPair(a, b, 0);

    a.appendSendData(5 * 1448);
    std::vector<Segment> segs = a.pullSegments(1'000);
    ASSERT_EQ(segs.size(), 5u);

    std::vector<Segment> none;
    std::vector<Segment> first = deliver(b, segs[0], 2'000);
    if (first.empty())
        b.onDelackTimer(2'000, first);
    ASSERT_FALSE(first.empty());
    a.onSegment(first.back(), 2'050, none);
    const sim::Tick srtt = a.srttTicks();

    // segs[1] is genuinely lost; the fast retransmit fills the gap.
    std::vector<Segment> dups;
    for (std::size_t k = 2; k < 5; ++k) {
        std::vector<Segment> replies =
            deliver(b, segs[k], 2'000 + 100 * static_cast<int>(k));
        ASSERT_FALSE(replies.empty());
        dups.push_back(replies.back());
    }
    for (std::size_t i = 0; i < 3; ++i)
        a.onSegment(dups[i], 3'000 + 100 * static_cast<int>(i), none);
    std::vector<Segment> rtx = a.pullSegments(3'400);
    ASSERT_FALSE(rtx.empty());
    EXPECT_EQ(a.retransmitCount(), 1u);

    // The gap filler IS the retransmission: the cumulative ACK echoes
    // the retransmission's own TSval, and Eifel must stay silent.
    std::vector<Segment> replies = deliver(b, rtx[0], 4'000);
    if (replies.empty())
        b.onDelackTimer(4'000, replies);
    ASSERT_FALSE(replies.empty());
    a.onSegment(replies.back(), 4'100, none);
    EXPECT_EQ(a.spuriousRetransmitCount(), 0u);
    EXPECT_EQ(a.ackedBytes(), 5u * 1448u);
    // Karn holds here too.
    EXPECT_EQ(a.srttTicks(), srtt);
}

TEST(ReorderSystem, InjectedReorderFaultsAreSeededDeterministic)
{
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.ttcp().mode = workload::TtcpMode::Receive;
    cfg.ttcp().msgSize = 8192;
    cfg.faults.tag = "reorder";
    cfg.faults.toSut.reorderProb = 0.02;
    core::RunSchedule sched;
    sched.warmup = 2'000'000;   // 1 ms
    sched.measure = 10'000'000; // 5 ms

    auto totals = [&cfg, &sched](std::uint64_t &ooo,
                                 std::uint64_t &rtx,
                                 std::uint64_t &spurious) {
        core::System sys(cfg);
        const core::RunResult r = core::Experiment::measure(sys, sched);
        EXPECT_GT(r.payloadBytes, 0u);
        ooo = rtx = spurious = 0;
        for (int i = 0; i < sys.numConnections(); ++i) {
            ooo += sys.socket(i).tcp().oooArrivalCount();
            rtx += sys.peer(i).tcp().retransmitCount();
            spurious += sys.peer(i).tcp().spuriousRetransmitCount();
        }
    };

    std::uint64_t o1 = 0, r1 = 0, s1 = 0, o2 = 0, r2 = 0, s2 = 0;
    totals(o1, r1, s1);
    totals(o2, r2, s2);
    // The injected delay must actually reorder, and identically so
    // under an identical seed; spurious never exceeds retransmits.
    EXPECT_GT(o1, 0u);
    EXPECT_EQ(o1, o2);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(s1, s2);
    EXPECT_LE(s1, r1);
}

TEST(ReorderSystem, SenderHopDriverIsDeterministicAndOffByDefault)
{
    auto hopsFor = [](sim::Tick hop_ticks) {
        core::SystemConfig cfg;
        cfg.platform.numCpus = 4;
        cfg.numConnections = 1;
        workload::FlowMixConfig mix;
        mix.maxConcurrentFlows = 2;
        mix.totalFlows = 10;
        mix.flowSizeMin = 8 * 1024;
        mix.flowSizeMax = 32 * 1024;
        mix.meanInterarrivalTicks = 100'000;
        mix.listenBacklog = 64;
        mix.senderHopTicks = hop_ticks;
        cfg.workload = mix;
        core::System sys(cfg);
        sys.establishAll(1'000'000);
        net::FlowClientPeer &client = sys.flowPeer(0);
        while (client.flowsCompletedCount() < 10 &&
               sys.eventQueue().now() < 4'000'000'000ull) {
            sys.runFor(20'000'000);
        }
        EXPECT_EQ(client.flowsCompletedCount(), 10u);
        return sys.senderHopCount();
    };

    EXPECT_EQ(hopsFor(0), 0u) << "hop driver must be off by default";
    const std::uint64_t h1 = hopsFor(2'000'000);
    const std::uint64_t h2 = hopsFor(2'000'000);
    EXPECT_GT(h1, 0u);
    EXPECT_EQ(h1, h2);
}

TEST(ReorderResults, ReorderBlockRoundTripsThroughJson)
{
    core::CampaignPoint withReorder;
    withReorder.label = "mix reorder point";
    withReorder.config.workload = workload::FlowMixConfig{};
    core::RunResult r;
    r.seconds = 0.5;
    r.payloadBytes = 123456;
    r.flows.started = 40;
    r.flows.completed = 40;
    r.flows.flowLearnDrops = 3;
    r.reorder.oooArrivals = 7;
    r.reorder.oooWindows = 2;
    r.reorder.oooWindowTicks = 81'000;
    r.reorder.oooDepthHist = {4, 2, 1, 0, 0, 0, 0, 0};
    r.reorder.dupAckBursts = 5;
    r.reorder.retransmits = 3;
    r.reorder.spuriousRetransmits = 2;
    r.reorder.senderHops = 40;

    core::CampaignPoint quiet;
    quiet.label = "reorder-free point";

    const core::ResultSet rs({withReorder, quiet},
                             {r, core::RunResult{}});
    std::stringstream ss;
    core::writeResultsJson(ss, rs);
    const std::string text = ss.str();
    // Exactly one point carries the optional block.
    EXPECT_EQ(text.find("\"reorder\""), text.rfind("\"reorder\""));
    EXPECT_NE(text.find("\"reorder\""), std::string::npos);
    EXPECT_NE(text.find("\"flow_learn_drops\""), std::string::npos);

    const std::vector<core::JsonRunRecord> parsed =
        test::jsonlRoundTrip(rs);
    ASSERT_EQ(parsed.size(), 2u);
    const core::ReorderStats &ro = parsed[0].result.reorder;
    EXPECT_EQ(ro.oooArrivals, 7u);
    EXPECT_EQ(ro.oooWindows, 2u);
    EXPECT_EQ(ro.oooWindowTicks, 81'000u);
    EXPECT_EQ(ro.oooDepthHist,
              (std::array<std::uint64_t, 8>{4, 2, 1, 0, 0, 0, 0, 0}));
    EXPECT_EQ(ro.dupAckBursts, 5u);
    EXPECT_EQ(ro.retransmits, 3u);
    EXPECT_EQ(ro.spuriousRetransmits, 2u);
    EXPECT_EQ(ro.senderHops, 40u);
    EXPECT_EQ(parsed[0].result.flows.flowLearnDrops, 3u);
    EXPECT_FALSE(parsed[1].result.reorder.any());
}

} // namespace
