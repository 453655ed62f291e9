#include "src/net/wire.hh"

#include "src/net/fault_injector.hh"
#include "src/sim/logging.hh"

namespace na::net {

Wire::DeliverEvent::DeliverEvent(Wire &wire_ref)
    : sim::Event(wire_ref.groupName() + ".deliver"), wire(wire_ref)
{
}

void
Wire::DeliverEvent::process()
{
    // The callback may send more packets through the wire (and thus
    // allocate further deliver events); this one is returned to the
    // pool only after it is done with its payload.
    (fromA ? wire.deliverB : wire.deliverA)(pkt);
    wire.deliveries.release(this);
}

Wire::Wire(stats::Group *parent, const std::string &name,
           sim::EventQueue &eq_ref)
    : stats::Group(parent, name),
      pktsAtoB(this, "pkts_a_to_b", "packets SUT -> peer"),
      pktsBtoA(this, "pkts_b_to_a", "packets peer -> SUT"),
      bytesAtoB(this, "bytes_a_to_b", "payload bytes SUT -> peer"),
      bytesBtoA(this, "bytes_b_to_a", "payload bytes peer -> SUT"),
      lossesAtoB(this, "losses_a_to_b",
                 "packets dropped by injected loss, SUT -> peer"),
      lossesBtoA(this, "losses_b_to_a",
                 "packets dropped by injected loss, peer -> SUT"),
      eq(eq_ref), deliveries(eq_ref)
{
}

void
Wire::send(const Packet &pkt, bool from_a)
{
    const sim::Tick now = eq.now();

    FaultInjector::WireDecision fd;
    if (faults) {
        fd = faults->onWirePacket(from_a, now);
        if (fd.drop) {
            ++(from_a ? lossesAtoB : lossesBtoA);
            return;
        }
    }

    const sim::Tick ser_ticks = serializationTicks(pkt);

    sim::Tick &busy = from_a ? busyUntilAB : busyUntilBA;
    const sim::Tick start = busy > now ? busy : now;
    const sim::Tick done = start + ser_ticks;
    busy = done;

    if (from_a) {
        ++pktsAtoB;
        bytesAtoB += pkt.seg.len;
    } else {
        ++pktsBtoA;
        bytesBtoA += pkt.seg.len;
    }

    Deliver &cb = from_a ? deliverB : deliverA;
    if (!cb)
        sim::panic("wire %s: no receiver attached", groupName().c_str());

    const sim::Tick when = done + latencyTicks + fd.extraDelayTicks;

    DeliverEvent *ev = deliveries.acquire(*this);
    ev->pkt = pkt;
    ev->pkt.corrupt = fd.corrupt;
    ev->fromA = from_a;

    eq.schedule(ev, when);
    if (fd.duplicate) {
        // The copy rides one tick behind the original, so the receiver
        // sees a clean duplicate rather than a coalesced double.
        DeliverEvent *dup = deliveries.acquire(*this);
        dup->pkt = ev->pkt;
        dup->fromA = from_a;
        eq.schedule(dup, when + 1);
    }
}

void
Wire::sendFromA(const Packet &pkt)
{
    send(pkt, true);
}

void
Wire::sendFromB(const Packet &pkt)
{
    send(pkt, false);
}

} // namespace na::net
