/**
 * @file
 * A full-duplex point-to-point gigabit link.
 *
 * Models per-direction serialization at the line rate plus propagation
 * latency, both constants of the modelled testbed. The wire itself is
 * lossless: drops, corruption, duplication and reordering come only
 * from an installed FaultInjector (see sim::FaultPlan).
 */

#ifndef NETAFFINITY_NET_WIRE_HH
#define NETAFFINITY_NET_WIRE_HH

#include <cmath>
#include <functional>
#include <string>

#include "src/cpu/platform_config.hh"
#include "src/net/segment.hh"
#include "src/sim/event_pool.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::net {

class FaultInjector;

/** One gigabit Ethernet link between the SUT NIC (side A) and a peer. */
class Wire : public stats::Group
{
  public:
    using Deliver = std::function<void(const Packet &)>;

    /** Line rate: gigabit Ethernet. */
    static constexpr double bitsPerSec = 1.0e9;
    /** Propagation + switch latency, in ticks of the platform clock. */
    static constexpr sim::Tick latencyTicks = 10'000; ///< 5 us

    Wire(stats::Group *parent, const std::string &name,
         sim::EventQueue &eq);

    /** @return ticks to clock @p pkt onto the line. */
    static sim::Tick
    serializationTicks(const Packet &pkt)
    {
        const double bits = static_cast<double>(pkt.wireBytes()) * 8.0;
        return static_cast<sim::Tick>(
            std::ceil(bits / bitsPerSec * cpu::PlatformConfig::freqHz));
    }

    /** Attach side A's (SUT's) receive callback. */
    void attachA(Deliver cb) { deliverA = std::move(cb); }

    /** Attach side B's (peer's) receive callback. */
    void attachB(Deliver cb) { deliverB = std::move(cb); }

    /** Transmit from the SUT toward the peer. */
    void sendFromA(const Packet &pkt);

    /** Transmit from the peer toward the SUT. */
    void sendFromB(const Packet &pkt);

    /**
     * Install a fault injector consulted per packet (nullptr = none,
     * the default — the fault path is one untaken branch).
     */
    void setFaultInjector(FaultInjector *fi) { faults = fi; }

    stats::Scalar pktsAtoB;
    stats::Scalar pktsBtoA;
    stats::Scalar bytesAtoB;
    stats::Scalar bytesBtoA;
    /** Fault-plan drops, split per direction. */
    stats::Scalar lossesAtoB;
    stats::Scalar lossesBtoA;

    /** @return total injected-loss drops, both directions. */
    double losses() const
    {
        return lossesAtoB.value() + lossesBtoA.value();
    }

  private:
    /** One in-flight packet delivery, drawn from the wire's pool. */
    class DeliverEvent : public sim::Event
    {
      public:
        explicit DeliverEvent(Wire &wire_ref);
        void process() override;

        Packet pkt;
        bool fromA = false;

      private:
        Wire &wire;
    };

    sim::EventQueue &eq;
    FaultInjector *faults = nullptr;
    Deliver deliverA;
    Deliver deliverB;
    sim::Tick busyUntilAB = 0;
    sim::Tick busyUntilBA = 0;

    sim::EventPool<DeliverEvent> deliveries;

    void send(const Packet &pkt, bool from_a);
};

} // namespace na::net

#endif // NETAFFINITY_NET_WIRE_HH
