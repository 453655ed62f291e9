/**
 * @file
 * The remote client machine: protocol-faithful, CPU-cost-free.
 *
 * Runs the same TcpConnection engine as the SUT, driven purely by wire
 * events — the paper's client boxes were provisioned so the SUT was
 * always the bottleneck, which zero processing cost reproduces exactly.
 * A Sink consumes everything immediately (ttcp receiver); a Source
 * keeps its send buffer full forever (ttcp transmitter).
 *
 * PeerConn is the endpoint both client models share: RemotePeer holds
 * one, and FlowClientPeer (flow_client.hh) one per live flow.
 */

#ifndef NETAFFINITY_NET_PEER_HH
#define NETAFFINITY_NET_PEER_HH

#include <functional>
#include <string>
#include <vector>

#include "src/net/tcp_connection.hh"
#include "src/net/wire.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::net {

/** What the remote end does with the connection. */
enum class PeerRole
{
    Sink,      ///< consume all incoming data (SUT transmits)
    Source,    ///< send forever (SUT receives)
    Responder, ///< reply to fixed-size requests (SUT is initiator)
    Requester, ///< issue fixed-size requests (SUT is server)
};

/** Request/response geometry for the RPC-style roles. */
struct PeerRpcConfig
{
    /** Bytes per request (Responder: inbound; Requester: outbound). */
    std::uint32_t reqBytes = 48;
    /** Bytes per response (Responder: outbound; Requester: inbound). */
    std::uint32_t respBytes = 48;
    /** Requester: requests allowed in flight. */
    int pipelineDepth = 1;
};

/**
 * One cost-free client-side TCP endpoint: the SUT-perspective key
 * stamped on every packet it sends, its TcpConnection, and the
 * connection's RTO and delayed-ACK events. The owner supplies both
 * timer callbacks, so its own pump logic runs when they fire.
 */
struct PeerConn
{
    /** Client-side delayed-ACK latency (fast client boxes, 1 ms). */
    static constexpr sim::Tick delackTicks = 2'000'000;

    FlowKey key;
    TcpConnection conn;
    sim::LambdaEvent rtoEvent;
    sim::LambdaEvent delackEvent;

    /** Events are named @p name + ".rto" and + ".delack". */
    PeerConn(const std::string &name, const FlowKey &flow_key,
             const TcpConfig &tcp_config, std::function<void()> on_rto,
             std::function<void()> on_delack);

    /** Send @p segs toward the SUT (the wire's B side), in order. */
    void send(Wire &wire, const std::vector<Segment> &segs) const;

    /**
     * Make the events follow the connection: the RTO event tracks its
     * deadline, and a pending delayed ACK fires delackTicks from now.
     */
    void armTimers(sim::EventQueue &eq);

    /** Take both events off @p eq (before reuse or destruction). */
    void disarm(sim::EventQueue &eq);
};

/** One remote ttcp endpoint. */
class RemotePeer : public stats::Group
{
  public:
    RemotePeer(stats::Group *parent, const std::string &name,
               sim::EventQueue &eq, Wire &wire, const FlowKey &flow_key,
               PeerRole role, const TcpConfig &tcp_config = TcpConfig{},
               const PeerRpcConfig &rpc_config = PeerRpcConfig{});
    ~RemotePeer();

    /** Passive-open and start serving (call before the SUT connects). */
    void start();

    /** Stop generating new data (Source role). */
    void stopSending() { sending = false; }

    PeerRole role() const { return peerRole; }
    TcpConnection &tcp() { return ep.conn; }
    const TcpConnection &tcp() const { return ep.conn; }

    /** @return app-level bytes this peer has received (Sink). */
    std::uint64_t bytesReceived() const
    {
        return ep.conn.deliveredBytes();
    }

    /** @return app-level bytes the peer has had acked (Source). */
    std::uint64_t bytesAckedAsSource() const
    {
        return ep.conn.ackedBytes();
    }

    /** @return requests completed (Responder: answered;
     *          Requester: responses fully received). */
    std::uint64_t requestsCompleted() const { return rpcCompleted; }

    stats::Scalar segsIn;
    stats::Scalar segsOut;
    stats::Scalar csumDrops;

  private:
    sim::EventQueue &eq;
    Wire &wire;
    PeerRole peerRole;
    PeerConn ep;
    bool sending = true;
    PeerRpcConfig rpc;
    std::uint64_t rpcConsumed = 0;  ///< inbound bytes consumed
    std::uint64_t rpcCompleted = 0; ///< full exchanges finished
    int rpcInFlight = 0;            ///< Requester: outstanding requests

    /** Reply/pull scratch reused across packets (capacity persists). */
    std::vector<Segment> scratch;

    void onPacket(const Packet &pkt);
    void pump();
    /** Send the segments in scratch, counting them in segsOut. */
    void sendScratch();
};

} // namespace na::net

#endif // NETAFFINITY_NET_PEER_HH
