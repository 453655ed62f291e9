#include "src/net/peer.hh"

#include "src/sim/logging.hh"

namespace na::net {

PeerConn::PeerConn(const std::string &name, const FlowKey &flow_key,
                   const TcpConfig &tcp_config,
                   std::function<void()> on_rto,
                   std::function<void()> on_delack)
    : key(flow_key), conn(tcp_config),
      rtoEvent(name + ".rto", std::move(on_rto)),
      delackEvent(name + ".delack", std::move(on_delack))
{
}

void
PeerConn::send(Wire &wire, const std::vector<Segment> &segs) const
{
    for (const Segment &seg : segs) {
        Packet pkt;
        pkt.flow = key;
        pkt.seg = seg;
        wire.sendFromB(pkt);
    }
}

void
PeerConn::armTimers(sim::EventQueue &eq)
{
    // Retransmission timer follows the connection's deadline.
    const sim::Tick rto = conn.rtoDeadline();
    if (rto == sim::maxTick) {
        eq.deschedule(&rtoEvent);
    } else {
        const sim::Tick when = rto > eq.now() ? rto : eq.now() + 1;
        if (!rtoEvent.scheduled() || rtoEvent.when() != when)
            eq.reschedule(&rtoEvent, when);
    }

    if (conn.delackPending()) {
        if (!delackEvent.scheduled())
            eq.schedule(&delackEvent, eq.now() + delackTicks);
    } else if (delackEvent.scheduled()) {
        eq.deschedule(&delackEvent);
    }
}

void
PeerConn::disarm(sim::EventQueue &eq)
{
    eq.deschedule(&rtoEvent);
    eq.deschedule(&delackEvent);
}

RemotePeer::RemotePeer(stats::Group *parent, const std::string &name,
                       sim::EventQueue &eq_ref, Wire &wire_ref,
                       const FlowKey &flow_key, PeerRole role,
                       const TcpConfig &tcp_config,
                       const PeerRpcConfig &rpc_config)
    : stats::Group(parent, name),
      segsIn(this, "segs_in", "segments received"),
      segsOut(this, "segs_out", "segments sent"),
      csumDrops(this, "csum_drops",
                "corrupt segments caught by the checksum"),
      eq(eq_ref), wire(wire_ref), peerRole(role),
      ep(name, flow_key, tcp_config,
         [this] {
             ep.conn.onRtoTimer(eq.now());
             pump();
         },
         [this] {
             // A delayed ACK goes out alone: nothing is pulled.
             scratch.clear();
             ep.conn.onDelackTimer(eq.now(), scratch);
             sendScratch();
             ep.armTimers(eq);
         }),
      rpc(rpc_config)
{
}

RemotePeer::~RemotePeer()
{
    ep.disarm(eq);
}

void
RemotePeer::start()
{
    ep.conn.openPassive();
    wire.attachB([this](const Packet &pkt) { onPacket(pkt); });
}

void
RemotePeer::sendScratch()
{
    segsOut += static_cast<double>(scratch.size());
    ep.send(wire, scratch);
}

void
RemotePeer::pump()
{
    TcpConnection &conn = ep.conn;
    const bool established = conn.state() == TcpState::Established;
    if (peerRole == PeerRole::Source && established) {
        // ttcp transmitter: keep the send buffer brim-full. Bytes are
        // virtual, so just top it up.
        const std::uint32_t space = conn.sndBufSpace();
        if (space)
            conn.appendSendData(space);
    }
    if (peerRole == PeerRole::Requester && established) {
        // Issue requests up to the pipeline depth.
        while (rpcInFlight < rpc.pipelineDepth &&
               conn.sndBufSpace() >= rpc.reqBytes) {
            conn.appendSendData(rpc.reqBytes);
            ++rpcInFlight;
        }
    }
    scratch.clear();
    conn.pullSegments(eq.now(), scratch);
    sendScratch();
    ep.armTimers(eq);
}

void
RemotePeer::onPacket(const Packet &pkt)
{
    if (pkt.corrupt) {
        // Injected payload damage: the client's checksum verify fails
        // and the segment is dropped before the protocol sees it.
        ++csumDrops;
        return;
    }
    ++segsIn;
    TcpConnection &conn = ep.conn;
    scratch.clear();
    conn.onSegment(pkt.seg, eq.now(), scratch);
    sendScratch();

    switch (peerRole) {
      case PeerRole::Sink:
        // Consume instantly: the client's read loop is never the
        // bottleneck.
        conn.consume(conn.readableBytes());
        break;
      case PeerRole::Responder: {
        // Count whole requests and queue their responses.
        rpcConsumed += conn.consume(conn.readableBytes());
        const std::uint64_t total_reqs = rpcConsumed / rpc.reqBytes;
        while (rpcCompleted < total_reqs) {
            conn.appendSendData(rpc.respBytes);
            ++rpcCompleted;
        }
        break;
      }
      case PeerRole::Requester: {
        // Count whole responses; pump() issues replacements.
        rpcConsumed += conn.consume(conn.readableBytes());
        const std::uint64_t done = rpcConsumed / rpc.respBytes;
        while (rpcCompleted < done) {
            ++rpcCompleted;
            if (rpcInFlight > 0)
                --rpcInFlight;
        }
        break;
      }
      case PeerRole::Source:
        break;
    }
    pump();
}

} // namespace na::net
