/**
 * @file
 * The TCP protocol state machine, as a pure (OS-free, cost-free) class.
 *
 * Both the system under test and the remote peers run this same engine;
 * the SUT's net::Socket wraps it with skbuff management and CPU cost
 * charging, while net::RemotePeer drives it directly (the paper's
 * clients are provisioned so the SUT is always the bottleneck).
 *
 * Implemented behaviour (Linux-2.4-era feature level):
 *  - three-way handshake, active and passive open;
 *  - cumulative ACKs, delayed ACK (ack every 2nd full segment,
 *    otherwise a delack flag the owner turns into a timer);
 *  - sliding window against the peer's advertised window;
 *  - Reno congestion control: slow start, congestion avoidance,
 *    fast retransmit on 3 duplicate ACKs, RTO backoff;
 *  - Nagle's algorithm (optional);
 *  - out-of-order reassembly on receive;
 *  - FIN teardown through TIME_WAIT / LAST_ACK.
 */

#ifndef NETAFFINITY_NET_TCP_CONNECTION_HH
#define NETAFFINITY_NET_TCP_CONNECTION_HH

#include <array>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "src/net/segment.hh"
#include "src/sim/types.hh"

namespace na::net {

/** Tunables of one connection. */
struct TcpConfig
{
    std::uint32_t mss = 1448;
    /** Send buffer limit in payload bytes (sndbuf). */
    std::uint32_t sndBufBytes = 64 * 1024;
    /** Receive window limit in payload bytes (rcvbuf). */
    std::uint32_t rcvWndBytes = 64 * 1024;
    bool nagle = true;
    std::uint32_t initialCwndSegs = 3;
    /** Base/min retransmission timeout (ticks; 200 ms at 2 GHz). */
    sim::Tick rtoTicks = 400'000'000;
    /**
     * Jacobson/Karels adaptive RTO: srtt + 4*rttvar, clamped to
     * [rtoTicks, rtoMaxTicks], with Karn's rule (no samples from
     * retransmitted segments). Off = fixed rtoTicks.
     */
    bool adaptiveRto = true;
    sim::Tick rtoMaxTicks = 240'000'000'000; ///< 120 s
    /**
     * NIC checksum offload (paper Background: checksum offloads were
     * the era's standard incremental win). When off, payload copies
     * become csum-and-copy loops with extra ALU work per byte.
     */
    bool checksumOffload = true;
    /**
     * Window-update threshold: a pure ACK is emitted when consuming
     * data re-opens the advertised window by at least this fraction of
     * rcvWndBytes (mirrors tcp_select_window behaviour).
     */
    double wndUpdateFrac = 0.25;
};

/** Connection state (RFC 793 subset). */
enum class TcpState : std::uint8_t
{
    Closed,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
};

/** @return printable state name. */
std::string_view tcpStateName(TcpState s);

/** The protocol engine. */
class TcpConnection
{
  public:
    explicit TcpConnection(const TcpConfig &config = TcpConfig{});

    const TcpConfig &config() const { return cfg; }
    TcpState state() const { return st; }

    /** @name Opening / closing @{ */
    /** Start the handshake (emits SYN on next pullSegments). */
    void openActive();

    /** Wait for a SYN. */
    void openPassive();

    /** Application close: FIN after pending data drains. */
    void close();

    /** Hard reset: drop all state and emit an RST on the next pull. */
    void abort();
    /** @} */

    /** @name Send side (application) @{ */
    /** @return payload bytes the app may append right now. */
    std::uint32_t sndBufSpace() const;

    /** Append @p bytes of app data to the send buffer.
     *  @return bytes actually accepted (<= sndBufSpace()). */
    std::uint32_t appendSendData(std::uint32_t bytes);

    /** @return bytes appended but not yet cumulatively acked. */
    std::uint64_t bytesOutstanding() const;

    /** @return cumulative payload bytes acked by the peer. */
    std::uint64_t ackedBytes() const { return sndUna - iss0; }

    /** @return cumulative payload bytes handed to appendSendData. */
    std::uint64_t appendedBytes() const { return appended; }
    /** @} */

    /** @name Receive side (application) @{ */
    /** @return in-order bytes delivered and not yet consumed. */
    std::uint32_t readableBytes() const;

    /** Consume @p bytes (app read); may set a window-update ACK.
     *  @return bytes consumed. */
    std::uint32_t consume(std::uint32_t bytes);

    /** @return cumulative in-order payload bytes received. */
    std::uint64_t deliveredBytes() const { return rcvNxt0Delta(); }

    /** @return true once the peer's FIN has been delivered in order. */
    bool finReceived() const { return peerFinDelivered; }
    /** @} */

    /** @name Protocol driving (owner: socket / peer / tests) @{ */
    /**
     * Process an arriving segment.
     * @param now current tick (RTT/RTO bookkeeping)
     * @param[out] replies segments to emit immediately (ACKs, SYNACK)
     */
    void onSegment(const Segment &seg, sim::Tick now,
                   std::vector<Segment> &replies);

    /**
     * Pull everything transmittable right now: handshake segments,
     * new data allowed by min(cwnd, rwnd) and Nagle, pending
     * retransmissions, window updates, FIN.
     */
    std::vector<Segment> pullSegments(sim::Tick now);

    /**
     * Allocation-free variant: append the transmittable segments to
     * @p out (not cleared first). Hot-path callers keep a scratch
     * vector whose capacity is reused across packets.
     */
    void pullSegments(sim::Tick now, std::vector<Segment> &out);

    /** @return true if pullSegments would return anything. */
    bool hasPendingOutput(sim::Tick now) const;

    /** Absolute deadline of the retransmit timer (maxTick if idle). */
    sim::Tick rtoDeadline() const { return rtoAt; }

    /** Fire the retransmission timer (owner checked the deadline). */
    void onRtoTimer(sim::Tick now);

    /** @return true if a delayed ACK awaits its timer. */
    bool delackPending() const { return delayedAckPending; }

    /** Fire the delayed-ACK timer. */
    void onDelackTimer(sim::Tick now, std::vector<Segment> &replies);
    /** @} */

    /** @name Introspection @{ */
    std::uint64_t sndUnaAbs() const { return sndUna; }
    std::uint64_t sndPushedAbs() const { return sndPushed; }
    /** First payload byte the peer will send (0 before handshake). */
    std::uint64_t firstDataSeq() const { return irs0; }
    /**
     * @return true once the handshake fixed the peer's first payload
     *         sequence number. firstDataSeq() alone cannot signal
     *         this: a peer whose ISN wraps the 64-bit space makes the
     *         legitimate first payload seq 0, indistinguishable from
     *         the pre-handshake default.
     */
    bool firstDataSeqKnown() const { return irsKnown; }
    std::uint64_t sndNxtAbs() const { return sndNxt; }
    std::uint64_t rcvNxtAbs() const { return rcvNxt; }
    std::uint32_t cwndBytes() const { return cwnd; }
    std::uint32_t advertisedWindow() const;
    std::uint64_t retransmitCount() const { return retransmits; }
    std::uint64_t dupAckCount() const { return dupAcksSeen; }
    std::size_t oooQueueSize() const { return ooo.size(); }
    /** @return data segments that arrived ahead of the next expected
     *          byte and were buffered (the reordering Flow Director's
     *          flow migrations induce). */
    std::uint64_t oooArrivalCount() const { return oooArrivals; }
    /**
     * @return retransmissions later proven unnecessary: the
     *         cumulative ACK that covered the retransmitted range
     *         echoed a timestamp older than the first retransmission
     *         (Eifel detection, RFC 3522 sender side). A spurious
     *         retransmit means the "lost" original was merely
     *         reordered — the signature cost of a mid-flow RX-queue
     *         migration.
     */
    std::uint64_t spuriousRetransmitCount() const
    {
        return spuriousRetransmits;
    }
    /** @return runs of consecutive duplicate ACKs (each burst counted
     *          once, at its first duplicate). */
    std::uint64_t dupAckBurstCount() const { return dupAckBursts; }
    /** @return completed reordering windows (spans during which the
     *          out-of-order queue was non-empty). */
    std::uint64_t oooWindowCount() const { return oooWindows; }
    /** @return total ticks spent inside reordering windows. */
    sim::Tick oooWindowTickTotal() const { return oooWindowTicks; }
    /** log2 buckets of the ooo-queue depth observed at each OOO
     *  arrival: 1, 2-3, 4-7, ..., 128+. */
    static constexpr std::size_t oooDepthBuckets = 8;
    const std::array<std::uint64_t, oooDepthBuckets> &
    oooDepthHistogram() const
    {
        return oooDepthHist;
    }
    /** Smoothed RTT estimate (0 before the first sample). */
    sim::Tick srttTicks() const { return srtt; }
    /** RTT variance estimate. */
    sim::Tick rttvarTicks() const { return rttvar; }
    /** Current effective RTO interval (before backoff shifting). */
    sim::Tick effectiveRto() const;
    /** @} */

  private:
    TcpConfig cfg;
    TcpState st = TcpState::Closed;

    // Send sequence space (absolute, no wrap).
    std::uint64_t iss = 0;     ///< initial send seq
    std::uint64_t iss0 = 0;    ///< first payload byte's seq
    std::uint64_t sndUna = 0;
    std::uint64_t sndNxt = 0;
    std::uint64_t sndPushed = 0; ///< appended-data high watermark (seq)
    std::uint64_t appended = 0;  ///< cumulative appendSendData bytes
    std::uint32_t rwnd = 0;      ///< peer advertised window
    std::uint32_t cwnd = 0;
    std::uint32_t ssthresh = 0;
    int dupAcks = 0;
    bool fastRetransmitPending = false;
    std::uint64_t retransmits = 0;
    std::uint64_t dupAcksSeen = 0;
    std::uint64_t oooArrivals = 0;
    std::uint64_t spuriousRetransmits = 0;
    std::uint64_t dupAckBursts = 0;

    /**
     * Eifel bookkeeping: the first retransmission of each outstanding
     * range, by end seq. When the cumulative ACK covers endSeq with a
     * TSecr older than rtxTs, the original (not the retransmission)
     * completed the range — the retransmit was spurious.
     */
    struct RtxMark
    {
        std::uint64_t endSeq;
        sim::Tick rtxTs;
    };
    std::vector<RtxMark> rtxMarks;

    /** Clock as of the last public entry point (segment timestamps). */
    sim::Tick clockNow = 0;
    /** Last in-order TSval seen from the peer (RFC 7323 TS.Recent). */
    sim::Tick tsRecent = 0;
    bool finQueued = false;   ///< close() called, FIN not yet sent
    bool finSent = false;
    std::uint64_t finSeq = 0;

    // Receive sequence space.
    std::uint64_t irs = 0;
    std::uint64_t irs0 = 0;   ///< first payload byte expected
    std::uint64_t rcvNxt = 0;
    std::uint64_t consumed = 0; ///< bytes the app has read
    std::map<std::uint64_t, std::uint64_t> ooo; ///< seq -> end (exclusive)
    std::array<std::uint64_t, oooDepthBuckets> oooDepthHist{};
    std::uint64_t oooWindows = 0;
    sim::Tick oooWindowTicks = 0;
    bool oooWindowOpen = false;
    sim::Tick oooWindowOpenedAt = 0;
    bool irsKnown = false; ///< handshake fixed irs0
    bool peerFinSeen = false;     ///< FIN seq known
    std::uint64_t peerFinSeq = 0;
    bool peerFinDelivered = false;
    int segsSinceAck = 0;
    bool delayedAckPending = false;
    bool ackNow = false;          ///< force a pure ACK on next pull
    std::uint32_t lastAdvertisedWnd = 0;

    // Timers.
    sim::Tick rtoAt = sim::maxTick;
    int rtoBackoff = 0;

    // RTT estimation (Jacobson/Karels; Karn's rule via rttSampling).
    sim::Tick srtt = 0;
    sim::Tick rttvar = 0;
    bool rttSampling = false;   ///< a timed segment is in flight
    std::uint64_t rttSeq = 0;   ///< seq the sample completes at
    sim::Tick rttSentAt = 0;

    /** Start timing a segment if no sample is in flight. */
    void maybeStartRttSample(std::uint64_t end_seq, sim::Tick now);
    /** Complete/cancel the RTT sample on an arriving ack. */
    void updateRttOnAck(std::uint64_t ack, sim::Tick now);

    bool synAcked = false; ///< our SYN has been acked
    bool listening = false;
    bool synAckPending = false; ///< SYN-ACK retransmission due
    bool rstPending = false;    ///< abort() called; RST not yet sent

    std::uint64_t rcvNxt0Delta() const;
    /** @return first unacked payload byte (skips the SYN's slot). */
    std::uint64_t sndUnaData() const;
    /** Emit a pure ACK into @p out, updating window bookkeeping. */
    void pushAck(std::vector<Segment> &out);
    std::uint32_t inFlight() const;
    void enterEstablished();
    void armRto(sim::Tick now);
    void maybeDisarmRto();
    void onAck(const Segment &seg, sim::Tick now,
               std::vector<Segment> &replies);
    void onData(const Segment &seg, std::vector<Segment> &replies);
    void deliverInOrder();
    /** Advance TS.Recent from an in-order segment (RFC 7323). */
    void noteTsRecent(const Segment &seg);
    /** Remember the first retransmission of [.., end_seq) for Eifel. */
    void recordRtxMark(std::uint64_t end_seq);
    /** Classify newly acked retransmissions as genuine or spurious. */
    void processEifelOnAck(const Segment &seg);
    /** Record the current ooo-queue depth in the log2 histogram. */
    void noteOooDepth();
    /** Close the reordering window if the ooo queue just drained. */
    void maybeCloseOooWindow();
    Segment makeAck() const;
    Segment makeDataSegment(std::uint64_t seq, std::uint32_t len) const;
    void advanceCwndOnAck(std::uint64_t acked_bytes);
};

} // namespace na::net

#endif // NETAFFINITY_NET_TCP_CONNECTION_HH
