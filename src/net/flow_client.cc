#include "src/net/flow_client.hh"

#include <algorithm>
#include <cmath>

#include "src/sim/logging.hh"
#include "src/sim/trace.hh"

namespace na::net {

namespace {
/** log2 size-bucket count: covers flow sizes up to 2^40 - 1 bytes. */
constexpr std::size_t sizeBucketCount = 41;

std::size_t
bucketIndex(std::uint64_t bytes)
{
    std::size_t idx = 0;
    while (bytes) {
        ++idx;
        bytes >>= 1;
    }
    return idx < sizeBucketCount ? idx : sizeBucketCount - 1;
}
} // namespace

FlowClientPeer::CFlow::CFlow(FlowClientPeer &owner)
    // Cheap static names on the hot path; reset() builds the per-flow
    // name only while event tracing is on.
    : PeerConn(
          "cflow", FlowKey{}, owner.tcp,
          [&owner, this] {
              conn.onRtoTimer(owner.eq.now());
              owner.flowTimerFired(*this);
          },
          [&owner, this] {
              // The flow pumps after its delayed ACK goes out.
              owner.scratch.clear();
              conn.onDelackTimer(owner.eq.now(), owner.scratch);
              send(owner.wire, owner.scratch);
              owner.flowTimerFired(*this);
          })
{
}

void
FlowClientPeer::CFlow::reset(FlowClientPeer &owner, const FlowKey &k)
{
    key = k;
    conn = TcpConnection(owner.tcp);
    targetBytes = 0;
    sent = 0;
    if (sim::traceEnabled(sim::TraceFlag::Event)) {
        rtoEvent.setName(sim::format("%s.rto:%s",
                                     owner.groupName().c_str(),
                                     k.describe().c_str()));
        delackEvent.setName(sim::format("%s.delack:%s",
                                        owner.groupName().c_str(),
                                        k.describe().c_str()));
    }
}

FlowClientPeer::FlowClientPeer(stats::Group *parent,
                               const std::string &name,
                               sim::EventQueue &eq_ref, Wire &wire_ref,
                               int conn, const FlowMixConfig &config,
                               const TcpConfig &tcp_config,
                               std::uint64_t seed)
    : stats::Group(parent, name),
      flowsStarted(this, "flows_started", "flows opened by the client"),
      flowsCompleted(this, "flows_completed",
                     "flows that ran to a clean close"),
      csumDrops(this, "csum_drops",
                "corrupt segments caught by the checksum"),
      latePackets(this, "late_packets",
                  "segments arriving for already-reaped flows"),
      deferredArrivals(this, "deferred_arrivals",
                       "arrivals held back by the concurrency cap"),
      retransmits(this, "retransmits",
                  "retransmissions over completed flows"),
      spuriousRetransmits(this, "spurious_retransmits",
                          "Eifel-classified spurious retransmissions"),
      dupAckBursts(this, "dup_ack_bursts",
                   "duplicate-ACK bursts received over completed flows"),
      eq(eq_ref), wire(wire_ref), cfg(config), tcp(tcp_config),
      serverAddr(sutAddr(conn)), clientAddr(peerAddr(conn)), rng(seed),
      buckets(sizeBucketCount),
      arrivalEvent(name + ".arrival", [this] { onArrival(); }),
      reapEvent(name + ".reap", [this] { reapCompleted(); })
{
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i].maxBytes =
            i == 0 ? 0 : (std::uint64_t(1) << i) - 1;
}

FlowClientPeer::~FlowClientPeer()
{
    eq.deschedule(&arrivalEvent);
    eq.deschedule(&reapEvent);
    for (auto &[key, f] : flows)
        f->disarm(eq);
}

void
FlowClientPeer::start()
{
    wire.attachB([this](const Packet &pkt) { onPacket(pkt); });
    arrivalsEnabled = true;
    scheduleNextArrival();
}

void
FlowClientPeer::stopArrivals()
{
    arrivalsEnabled = false;
    eq.deschedule(&arrivalEvent);
}

void
FlowClientPeer::resetFlowLog()
{
    for (FlowSizeBucket &b : buckets) {
        b.flows = 0;
        b.bytes = 0;
    }
    doneBytesSent = 0;
}

void
FlowClientPeer::scheduleNextArrival()
{
    if (!arrivalsEnabled)
        return;
    if (cfg.totalFlows && requested >= cfg.totalFlows)
        return;
    const auto draw = static_cast<sim::Tick>(
        rng.exponential(cfg.meanInterarrivalTicks));
    const sim::Tick dt = draw > 0 ? draw : 1;
    eq.schedule(&arrivalEvent, eq.now() + dt);
}

void
FlowClientPeer::onArrival()
{
    int want = cfg.stormSize;
    if (cfg.totalFlows) {
        const std::uint64_t left = cfg.totalFlows - requested;
        if (static_cast<std::uint64_t>(want) > left)
            want = static_cast<int>(left);
    }
    requested += static_cast<std::uint64_t>(want);
    tryStart(want);
    scheduleNextArrival();
}

void
FlowClientPeer::tryStart(int n)
{
    for (int i = 0; i < n; ++i) {
        if (flows.size() >=
            static_cast<std::size_t>(cfg.maxConcurrentFlows)) {
            const int held = n - i;
            deferred += static_cast<std::uint64_t>(held);
            deferredArrivals += held;
            return;
        }
        startFlow();
    }
}

void
FlowClientPeer::startFlow()
{
    const FlowKey key = mintKey();
    std::unique_ptr<CFlow> flow;
    if (!flowPool.empty()) {
        flow = std::move(flowPool.back());
        flowPool.pop_back();
    } else {
        flow = std::make_unique<CFlow>(*this);
    }
    flow->reset(*this, key);
    CFlow &f = *flow;
    flows.emplace(key, std::move(flow));
    ++launched;
    ++flowsStarted;
    f.targetBytes = drawFlowSize();
    f.conn.openActive();
    pumpFlow(f);
}

std::uint32_t
FlowClientPeer::drawFlowSize()
{
    const double lo = cfg.flowSizeMin;
    const double hi = cfg.flowSizeMax;
    if (cfg.flowSizeMax == cfg.flowSizeMin)
        return cfg.flowSizeMin;
    const double a = cfg.flowSizeShape;
    if (a <= 0.0) {
        // Degenerate shape: fall back to uniform over the range.
        return cfg.flowSizeMin +
               static_cast<std::uint32_t>(rng.uniform() * (hi - lo));
    }
    // Bounded Pareto via inverse transform.
    const double la = std::pow(lo, -a);
    const double ha = std::pow(hi, -a);
    const double u = rng.uniform();
    const double x = std::pow(la - u * (la - ha), -1.0 / a);
    const double clamped = std::min(hi, std::max(lo, x));
    return static_cast<std::uint32_t>(clamped);
}

FlowKey
FlowClientPeer::mintKey()
{
    // Linear-probe the ephemeral port range for a port not held by a
    // live flow. Keys are SUT-perspective: local = server side.
    for (int tries = 0; tries < 64512; ++tries) {
        FlowKey key;
        key.localAddr = serverAddr;
        key.localPort = FlowMixConfig::listenPort;
        key.remoteAddr = clientAddr;
        key.remotePort = nextPort;
        nextPort = nextPort == 65535 ? 1024 : nextPort + 1;
        if (flows.find(key) == flows.end())
            return key;
    }
    sim::fatal("FlowClientPeer %s: ephemeral port space exhausted "
               "(%zu live flows)",
               groupName().c_str(), flows.size());
    return FlowKey{};
}

void
FlowClientPeer::pumpFlow(CFlow &f)
{
    if (f.conn.state() == TcpState::Established) {
        if (f.sent < f.targetBytes) {
            const std::uint64_t space = f.conn.sndBufSpace();
            const std::uint64_t want = f.targetBytes - f.sent;
            const auto n =
                static_cast<std::uint32_t>(std::min(space, want));
            if (n)
                f.sent += f.conn.appendSendData(n);
        }
        if (f.sent >= f.targetBytes)
            f.conn.close();
    }
    scratch.clear();
    f.conn.pullSegments(eq.now(), scratch);
    f.send(wire, scratch);
    f.armTimers(eq);
}

bool
FlowClientPeer::completed(const CFlow &f) const
{
    const TcpState st = f.conn.state();
    return st == TcpState::TimeWait ||
           (st == TcpState::Closed && f.conn.finReceived());
}

void
FlowClientPeer::flowTimerFired(CFlow &f)
{
    pumpFlow(f);
    if (completed(f))
        scheduleReap(f);
}

void
FlowClientPeer::onPacket(const Packet &pkt)
{
    if (pkt.corrupt) {
        // Injected payload damage: the checksum verify fails and the
        // segment never reaches the protocol.
        ++csumDrops;
        return;
    }
    const auto it = flows.find(pkt.flow);
    if (it == flows.end()) {
        // Retransmission for a flow already reaped (e.g. a FIN
        // re-sent because our final TimeWait ACK was dropped at the
        // SUT's RX ring). Answer like a real closed endpoint: RST.
        // Without it the SUT child retransmits into the void forever
        // and its socket is never retired to the pool.
        ++latePackets;
        if (!pkt.seg.rst()) {
            Packet out;
            out.flow = pkt.flow;
            out.seg.seq = pkt.seg.ack;
            out.seg.flags = flagRst;
            wire.sendFromB(out);
        }
        return;
    }
    CFlow &f = *it->second;
    scratch.clear();
    f.conn.onSegment(pkt.seg, eq.now(), scratch);
    f.send(wire, scratch);
    pumpFlow(f);
    if (completed(f))
        scheduleReap(f);
}

void
FlowClientPeer::scheduleReap(const CFlow &f)
{
    pendingReap.push_back(f.key);
    if (!reapEvent.scheduled())
        eq.schedule(&reapEvent, eq.now());
}

void
FlowClientPeer::reapCompleted()
{
    for (const FlowKey &key : pendingReap) {
        const auto it = flows.find(key);
        if (it == flows.end())
            continue; // queued twice in one tick
        CFlow &f = *it->second;
        if (!completed(f))
            continue;
        recordCompletion(f);
        f.disarm(eq);
        flowPool.push_back(std::move(it->second));
        flows.erase(it);
    }
    pendingReap.clear();

    // Freed slots admit arrivals the cap was holding back.
    if (deferred &&
        flows.size() < static_cast<std::size_t>(cfg.maxConcurrentFlows)) {
        const std::uint64_t room =
            static_cast<std::size_t>(cfg.maxConcurrentFlows) -
            flows.size();
        const auto n =
            static_cast<int>(std::min<std::uint64_t>(deferred, room));
        deferred -= static_cast<std::uint64_t>(n);
        tryStart(n);
    }
}

void
FlowClientPeer::recordCompletion(const CFlow &f)
{
    ++flowsCompleted;
    doneBytesSent += f.sent;
    retransmits += static_cast<double>(f.conn.retransmitCount());
    spuriousRetransmits +=
        static_cast<double>(f.conn.spuriousRetransmitCount());
    dupAckBursts += static_cast<double>(f.conn.dupAckBurstCount());
    FlowSizeBucket &b = buckets[bucketIndex(f.sent)];
    ++b.flows;
    b.bytes += f.sent;
}

} // namespace na::net
