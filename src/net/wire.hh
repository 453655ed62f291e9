/**
 * @file
 * A full-duplex point-to-point gigabit link.
 *
 * Models per-direction serialization at the configured line rate plus
 * propagation latency. Optional random loss supports the property tests
 * that exercise TCP retransmission.
 *
 * Each direction draws its loss decisions from its own RNG stream
 * (seeded apart), so which packets a lossy run drops in one direction
 * does not depend on how much traffic flows the other way. Fault-run
 * results are defined by these streams: merging them would change
 * every lossy result the repo has recorded.
 */

#ifndef NETAFFINITY_NET_WIRE_HH
#define NETAFFINITY_NET_WIRE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/segment.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::net {

class FaultInjector;

/** One gigabit Ethernet link between the SUT NIC (side A) and a peer. */
class Wire : public stats::Group
{
  public:
    using Deliver = std::function<void(const Packet &)>;

    /**
     * @param bits_per_sec line rate (default 1 GbE)
     * @param latency_ticks propagation + switch latency
     * @param freq_hz tick frequency (to convert byte times to ticks)
     */
    Wire(stats::Group *parent, const std::string &name,
         sim::EventQueue &eq, double freq_hz,
         double bits_per_sec = 1.0e9, sim::Tick latency_ticks = 10000,
         double loss_prob = 0.0, std::uint64_t seed = 7);
    ~Wire();

    /** Attach side A's (SUT's) receive callback. */
    void attachA(Deliver cb) { deliverA = std::move(cb); }

    /** Attach side B's (peer's) receive callback. */
    void attachB(Deliver cb) { deliverB = std::move(cb); }

    /** Transmit from the SUT toward the peer. */
    void sendFromA(const Packet &pkt);

    /** Transmit from the peer toward the SUT. */
    void sendFromB(const Packet &pkt);

    /** Set random loss probability (tests). */
    void setLossProb(double p) { lossProb = p; }

    /**
     * Install a fault injector consulted per packet (nullptr = none,
     * the default — the fault path is one untaken branch).
     */
    void setFaultInjector(FaultInjector *fi) { faults = fi; }

    double bitsPerSec() const { return rate; }

    stats::Scalar pktsAtoB;
    stats::Scalar pktsBtoA;
    stats::Scalar bytesAtoB;
    stats::Scalar bytesBtoA;
    /** Injected-loss drops, split per direction. */
    stats::Scalar lossesAtoB;
    stats::Scalar lossesBtoA;

    /** @return total injected-loss drops, both directions. */
    double losses() const
    {
        return lossesAtoB.value() + lossesBtoA.value();
    }

  private:
    /**
     * One in-flight packet delivery. Pooled through an intrusive
     * freelist, so the steady-state per-packet path performs no heap
     * allocation. Reuse cannot reorder anything: delivery order comes
     * from the queue's (when, priority, seq), not from which object
     * carries the packet.
     */
    class DeliverEvent : public sim::Event
    {
      public:
        explicit DeliverEvent(Wire &wire_ref);
        void process() override;

        Packet pkt;
        bool fromA = false;
        DeliverEvent *nextFree = nullptr; ///< intrusive freelist link

      private:
        Wire &wire;
    };

    sim::EventQueue &eq;
    double freqHz;
    double rate;
    sim::Tick latency;
    double lossProb;
    FaultInjector *faults = nullptr;
    /** Per-direction loss RNGs (see the file comment). */
    sim::Random rngAB;
    sim::Random rngBA;
    Deliver deliverA;
    Deliver deliverB;
    sim::Tick busyUntilAB = 0;
    sim::Tick busyUntilBA = 0;

    /** Every delivery event ever allocated (grows only to the
     *  in-flight high-water mark) and the idle ones among them. */
    std::vector<std::unique_ptr<DeliverEvent>> events;
    DeliverEvent *freeList = nullptr;

    DeliverEvent *allocDeliverEvent();
    void recycle(DeliverEvent *ev);

    void send(const Packet &pkt, bool from_a);
};

} // namespace na::net

#endif // NETAFFINITY_NET_WIRE_HH
