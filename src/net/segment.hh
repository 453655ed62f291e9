/**
 * @file
 * TCP segments and wire packets.
 *
 * Payload bytes are *virtual*: the simulator transports byte counts and
 * sequence numbers, not data. Sequence numbers are 64-bit monotonic
 * (no 32-bit wrap modeling) — the protocol logic under study does not
 * depend on wrap behaviour.
 */

#ifndef NETAFFINITY_NET_SEGMENT_HH
#define NETAFFINITY_NET_SEGMENT_HH

#include <cstdint>
#include <string>

#include "src/net/flow.hh"

namespace na::net {

/** TCP header flags. */
enum SegFlags : std::uint8_t
{
    flagSyn = 1 << 0,
    flagAck = 1 << 1,
    flagFin = 1 << 2,
    flagRst = 1 << 3,
};

/** One TCP segment (header fields the model uses). */
struct Segment
{
    std::uint64_t seq = 0;  ///< first payload byte's sequence number
    std::uint64_t ack = 0;  ///< next expected byte (valid if flagAck)
    std::uint32_t len = 0;  ///< payload bytes
    std::uint32_t wnd = 0;  ///< advertised receive window (bytes)
    std::uint8_t flags = 0;
    /**
     * RFC 7323 timestamp option (0 = absent). TSval carries the
     * sender's tick clock; TSecr echoes the peer's last in-order
     * TSval. Purely observational in this model — used by the Eifel
     * spurious-retransmit classifier, never by protocol decisions —
     * and already charged on the wire (wireBytes' 32-byte TCP header
     * includes the timestamp option).
     */
    std::uint64_t tsVal = 0;
    std::uint64_t tsEcho = 0;

    bool syn() const { return flags & flagSyn; }
    bool hasAck() const { return flags & flagAck; }
    bool fin() const { return flags & flagFin; }
    bool rst() const { return flags & flagRst; }

    std::string describe() const;
};

/** A segment in flight on a wire, tagged for demux and completion. */
struct Packet
{
    FlowKey flow;       ///< SUT-perspective 4-tuple (demux key)
    Segment seg;
    /**
     * Sender-side skb slot to free at TX completion (pure ACKs and
     * control segments); -1 when the skb lives until acked.
     */
    int freeSlotOnTxComplete = -1;
    /**
     * Payload damaged by an injected fault (net::FaultInjector). The
     * receiver's checksum path catches and drops flagged packets;
     * protocol logic never sees them.
     */
    bool corrupt = false;

    /** @return on-wire frame bytes incl. Ethernet/IP/TCP overhead. */
    std::uint32_t
    wireBytes() const
    {
        // 14 MAC + 20 IP + 32 TCP(w/ timestamps) + 4 FCS + preamble/IFG
        return seg.len + 90;
    }
};

/**
 * @return correlation id tying a packet's timeline span (NIC arrival
 *         to socket delivery) across async begin/end events: the
 *         flow's 32-bit hash in the high half, sequence number
 *         (truncated) in the low half.
 */
inline std::uint64_t
packetSpanId(const Packet &pkt)
{
    return (static_cast<std::uint64_t>(flowHash32(pkt.flow)) << 32) |
           (pkt.seg.seq & 0xffffffffu);
}

} // namespace na::net

#endif // NETAFFINITY_NET_SEGMENT_HH
