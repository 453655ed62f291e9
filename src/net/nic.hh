/**
 * @file
 * Gigabit NIC model (e1000-flavoured), multi-queue capable.
 *
 * RX: arriving frames are steered to an RX queue by the system's
 * SteeringPolicy (queue 0 when none is installed), DMA-written into
 * that queue's pre-posted ring buffers — invalidating any cached
 * copies, which is why receive-side payload is always cache-cold — and
 * the queue's MSI-like vector is raised subject to per-queue moderation
 * (min gap between interrupts; the vector stays masked until the
 * softirq drains the queue, NAPI-style).
 *
 * TX: the driver posts descriptors; the NIC DMA-reads payloads (snoop
 * downgrade, no CPU cost) and serializes onto the wire; completions are
 * written back by DMA and signaled through queue 0's moderated vector
 * (legacy e1000 behaviour — there is one TX ring).
 */

#ifndef NETAFFINITY_NET_NIC_HH
#define NETAFFINITY_NET_NIC_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/segment.hh"
#include "src/net/skb.hh"
#include "src/net/wire.hh"
#include "src/sim/event_pool.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::os {
class ExecContext;
class Kernel;
} // namespace na::os

namespace na::net {

class FaultInjector;
class SteeringPolicy;

/** NIC tunables. */
struct NicConfig
{
    int rxRingSize = 256; ///< descriptors per RX queue
    int txRingSize = 256;
    /** Minimum ticks between interrupts (moderation / ITR). */
    sim::Tick irqGapTicks = 32'000; ///< 16 us at 2 GHz
    /** DMA engine latency from doorbell to wire handoff. */
    static constexpr sim::Tick dmaDelayTicks = 6'000; ///< 3 us
};

/** One NIC port wired to one remote peer. */
class Nic : public stats::Group
{
  public:
    /** Upstack delivery: called per received frame from softirq. */
    using RxDeliver = std::function<void(os::ExecContext &,
                                         const Packet &, const SkBuff &)>;
    /** TX-completion hook (frees control skbs). */
    using TxComplete = std::function<void(os::ExecContext &,
                                          const Packet &)>;

    /**
     * @param num_rx_queues RX queues, each with its own ring, vector
     *        and moderation (the steering config's queue count)
     */
    Nic(stats::Group *parent, const std::string &name, int index,
        os::Kernel &kernel, SkbPool &pool, Wire &wire,
        const NicConfig &config = NicConfig{}, int num_rx_queues = 1);
    ~Nic();

    int index() const { return idx; }
    /** Vector of queue 0 (the only vector for single-queue NICs). */
    int irqVector() const { return queues[0].vector; }
    /** Vector registered for RX queue @p q. */
    int queueVector(int q) const
    {
        return queues[static_cast<std::size_t>(q)].vector;
    }
    int numRxQueues() const { return static_cast<int>(queues.size()); }
    sim::Addr mmioAddr() const { return mmio; }

    /** ISR tail hook: the Driver queues (NIC, queue) for NET_RX. */
    using IsrHook =
        std::function<void(os::ExecContext &, Nic &, int queue)>;

    /** Install the softirq-side handlers (done by the Driver). */
    void setRxDeliver(RxDeliver cb) { rxDeliver = std::move(cb); }
    void setTxComplete(TxComplete cb) { txComplete = std::move(cb); }
    void setIsrHook(IsrHook cb) { isrHook = std::move(cb); }

    /**
     * Install the flow-steering policy consulted per arriving frame
     * (nullptr: everything lands on queue 0, the pre-steering model).
     */
    void setSteering(SteeringPolicy *policy) { steer = policy; }

    /**
     * Install a fault injector consulted on RX (checksum catch of
     * corrupt frames, ring-stall windows) and on interrupt raise
     * (lost/coalesced MSIs). nullptr = no faults, the default.
     */
    void setFaultInjector(FaultInjector *fi) { faults = fi; }

    /**
     * Driver TX entry (e1000_xmit_frame context, already charged by the
     * caller except the descriptor/doorbell work done here).
     * @param data_addr payload source for the DMA read (0 for none)
     * @return false if the TX ring was full (frame dropped)
     */
    bool xmitFrame(os::ExecContext &ctx, const Packet &pkt,
                   sim::Addr data_addr);

    /** ISR top half: ack/mask the queue's vector, schedule bottom half. */
    void isr(os::ExecContext &ctx, int queue);

    /**
     * Softirq bottom half for one queue: clean TX completions (queue 0
     * only) and deliver up to @p budget received frames upstack,
     * replenishing the ring.
     * @return true if work remains (caller should re-poll).
     */
    bool clean(os::ExecContext &ctx, int queue, int budget);

    /** @return frames waiting across all RX queues. */
    int rxPending() const;

    /** @return frames waiting in RX queue @p q. */
    int
    rxPending(int q) const
    {
        return static_cast<int>(
            queues[static_cast<std::size_t>(q)].pendingRx.size());
    }

    /** @return frames received on queue @p q (steering diagnostics). */
    std::uint64_t
    rxFramesOnQueue(int q) const
    {
        return static_cast<std::uint64_t>(
            rxFramesPerQueue[static_cast<std::size_t>(q)]);
    }

    stats::Scalar rxFrames;
    stats::Scalar txFrames;
    stats::Scalar rxDropsRingFull;
    stats::Scalar txDropsRingFull;
    stats::Scalar irqsRaised;
    stats::Scalar rxReplenishFailures;
    stats::Vector rxFramesPerQueue;

  private:
    struct PendingRx
    {
        Packet pkt;
        SkBuff skb;
        int descIdx;
    };

    struct PendingTxDone
    {
        Packet pkt;
        int descIdx;
    };

    /** DMA pull from the doorbell to the wire handoff. Pooled. */
    class TxDmaEvent : public sim::Event
    {
      public:
        explicit TxDmaEvent(Nic &nic_ref);
        void process() override;

        Packet pkt;
        sim::Addr dataAddr = 0;
        std::uint32_t dmaLen = 0;

      private:
        Nic &nic;
    };

    /** Completion descriptor write-back after serialization. Pooled. */
    class TxDoneEvent : public sim::Event
    {
      public:
        explicit TxDoneEvent(Nic &nic_ref);
        void process() override;

        Packet pkt;
        int descIdx = 0;

      private:
        Nic &nic;
    };

    /** Interrupt-moderation delay; at most one pending per queue. */
    class ModerationEvent : public sim::Event
    {
      public:
        ModerationEvent(Nic &nic_ref, int queue_idx);
        void process() override;

      private:
        Nic &nic;
        int queue;
    };

    /** Per-RX-queue ring, vector, and moderation state. */
    struct RxQueue
    {
        int vector = -1;
        sim::Addr descBase = 0;
        std::vector<SkBuff> ringSkbs; ///< pre-posted buffers per desc
        std::deque<PendingRx> pendingRx;
        int nextDesc = 0;
        bool masked = false; ///< ISR taken, softirq not yet done
        sim::Tick nextIrqAllowed = 0;
        std::unique_ptr<ModerationEvent> moderation;
    };

    int idx;
    os::Kernel &kernel;
    SkbPool &pool;
    Wire &wire;
    NicConfig cfg;
    /** Per-device TX queue lock (dev->queue_lock). */
    os::SpinLock txLock;

    sim::Addr mmio = 0;
    sim::Addr txDescBase = 0;

    std::vector<RxQueue> queues;
    std::deque<PendingTxDone> pendingTxDone;
    int txNextDesc = 0;
    int txInFlight = 0;

    sim::EventPool<TxDmaEvent> txDmaEvents;
    sim::EventPool<TxDoneEvent> txDoneEvents;

    RxDeliver rxDeliver;
    TxComplete txComplete;
    IsrHook isrHook;
    SteeringPolicy *steer = nullptr;
    FaultInjector *faults = nullptr;

    void onWirePacket(const Packet &pkt);
    void onModerationExpired(int queue);
    void requestIrq(int queue);
    void raiseNow(int queue);
};

} // namespace na::net

#endif // NETAFFINITY_NET_NIC_HH
