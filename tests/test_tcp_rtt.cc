/**
 * @file
 * Tests for adaptive RTO (Jacobson/Karels + Karn) and the checksum
 * offload knob.
 */

#include <gtest/gtest.h>

#include "src/net/tcp_connection.hh"

using namespace na;
using namespace na::net;

namespace {

/** Establish a pair by direct segment exchange at a given tick. */
void
establish(TcpConnection &a, TcpConnection &b, sim::Tick now)
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

/** Send one segment at t_send, ack it at t_ack; return the ack. */
void
exchange(TcpConnection &a, TcpConnection &b, sim::Tick t_send,
         sim::Tick t_ack)
{
    a.appendSendData(1448);
    std::vector<Segment> segs = a.pullSegments(t_send);
    ASSERT_EQ(segs.size(), 1u);
    std::vector<Segment> replies;
    b.onSegment(segs[0], t_ack, replies);
    b.consume(b.readableBytes()); // keep the window open
    if (replies.empty())
        b.onDelackTimer(t_ack, replies);
    ASSERT_FALSE(replies.empty());
    std::vector<Segment> none;
    a.onSegment(replies.back(), t_ack, none);
}

TEST(TcpRtt, FirstSampleSeedsSrtt)
{
    TcpConnection a;
    TcpConnection b;
    establish(a, b, 0);
    EXPECT_EQ(a.srttTicks(), 0u);
    exchange(a, b, 1000, 1000 + 50'000);
    EXPECT_EQ(a.srttTicks(), 50'000u);
    EXPECT_EQ(a.rttvarTicks(), 25'000u);
}

TEST(TcpRtt, SmoothingConvergesToStableRtt)
{
    TcpConnection a;
    TcpConnection b;
    establish(a, b, 0);
    sim::Tick now = 0;
    for (int i = 0; i < 60; ++i) {
        now += 1'000'000;
        exchange(a, b, now, now + 80'000);
    }
    EXPECT_NEAR(static_cast<double>(a.srttTicks()), 80'000.0, 2'000.0);
    // Variance collapses on a constant RTT.
    EXPECT_LT(a.rttvarTicks(), 10'000u);
}

TEST(TcpRtt, EffectiveRtoClampedToMinimum)
{
    TcpConnection a;
    TcpConnection b;
    establish(a, b, 0);
    sim::Tick now = 0;
    for (int i = 0; i < 30; ++i) {
        now += 1'000'000;
        exchange(a, b, now, now + 80'000); // 40 us RTT
    }
    // srtt + 4*var is far below the 200 ms floor.
    EXPECT_EQ(a.effectiveRto(), a.config().rtoTicks);
}

TEST(TcpRtt, LargeRttRaisesRto)
{
    TcpConfig cfg;
    cfg.rtoTicks = 1'000'000; // 0.5 ms floor for the test
    TcpConnection a(cfg);
    TcpConnection b(cfg);
    establish(a, b, 0);
    sim::Tick now = 0;
    for (int i = 0; i < 60; ++i) {
        now += 100'000'000;
        exchange(a, b, now, now + 10'000'000); // 5 ms RTT
    }
    EXPECT_GT(a.effectiveRto(), 9'000'000u);
    EXPECT_LE(a.effectiveRto(), cfg.rtoMaxTicks);
}

TEST(TcpRtt, KarnRuleSkipsRetransmittedSamples)
{
    TcpConfig cfg;
    cfg.rtoTicks = 10'000;
    TcpConnection a(cfg);
    TcpConnection b(cfg);
    establish(a, b, 0);

    // Send a segment that gets lost; RTO fires; the retransmission is
    // acked much later — but must NOT produce an RTT sample.
    a.appendSendData(1448);
    std::vector<Segment> lost = a.pullSegments(100);
    ASSERT_EQ(lost.size(), 1u);
    a.onRtoTimer(a.rtoDeadline());
    std::vector<Segment> rtx = a.pullSegments(a.rtoDeadline());
    ASSERT_FALSE(rtx.empty());

    std::vector<Segment> replies;
    b.onSegment(rtx[0], 90'000'000, replies);
    if (replies.empty())
        b.onDelackTimer(90'000'000, replies);
    std::vector<Segment> none;
    a.onSegment(replies.back(), 90'000'000, none);
    EXPECT_EQ(a.srttTicks(), 0u) << "Karn violated: sampled a rtx";
    EXPECT_EQ(a.ackedBytes(), 1448u);
}

TEST(TcpRtt, BackoffMultipliesEffectiveRto)
{
    TcpConfig cfg;
    cfg.rtoTicks = 10'000;
    TcpConnection a(cfg);
    a.openActive();
    a.pullSegments(0);
    const sim::Tick d0 = a.rtoDeadline();
    a.onRtoTimer(d0);
    a.pullSegments(d0);
    const sim::Tick d1 = a.rtoDeadline();
    a.onRtoTimer(d1);
    a.pullSegments(d1);
    const sim::Tick d2 = a.rtoDeadline();
    // Exponential backoff: gaps double.
    EXPECT_NEAR(static_cast<double>(d2 - d1),
                2.0 * static_cast<double>(d1 - d0), 2.0);
}

} // namespace
