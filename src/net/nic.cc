#include "src/net/nic.hh"

#include "src/net/fault_injector.hh"
#include "src/net/steering.hh"
#include "src/os/exec_context.hh"
#include "src/os/kernel.hh"
#include "src/sim/logging.hh"

namespace na::net {

namespace {

std::vector<std::string>
queueBucketNames(int num_queues)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(num_queues));
    for (int q = 0; q < num_queues; ++q)
        names.push_back(sim::format("q%d", q));
    return names;
}

} // namespace

Nic::TxDmaEvent::TxDmaEvent(Nic &nic_ref)
    : sim::Event(nic_ref.groupName() + ".txdma"), nic(nic_ref)
{
}

void
Nic::TxDmaEvent::process()
{
    if (dataAddr && dmaLen)
        nic.kernel.snoopDomain().dma(dataAddr, dmaLen);
    nic.wire.sendFromA(pkt);
    nic.txDmaEvents.release(this);
}

Nic::TxDoneEvent::TxDoneEvent(Nic &nic_ref)
    : sim::Event(nic_ref.groupName() + ".txdone"), nic(nic_ref)
{
}

void
Nic::TxDoneEvent::process()
{
    nic.kernel.snoopDomain().dma(
        nic.txDescBase + static_cast<sim::Addr>(descIdx) * 16, 16);
    nic.pendingTxDone.push_back(PendingTxDone{pkt, descIdx});
    // TX completions always signal through queue 0's vector (one TX
    // ring, legacy e1000 wiring).
    nic.requestIrq(0);
    nic.txDoneEvents.release(this);
}

Nic::ModerationEvent::ModerationEvent(Nic &nic_ref, int queue_idx)
    : sim::Event(queue_idx == 0
                     ? nic_ref.groupName() + ".moderation"
                     : nic_ref.groupName() +
                           sim::format(".moderation-q%d", queue_idx)),
      nic(nic_ref), queue(queue_idx)
{
}

void
Nic::ModerationEvent::process()
{
    nic.onModerationExpired(queue);
}

Nic::Nic(stats::Group *parent, const std::string &name, int index,
         os::Kernel &kernel_ref, SkbPool &pool_ref, Wire &wire_ref,
         const NicConfig &config, int num_rx_queues)
    : stats::Group(parent, name),
      rxFrames(this, "rx_frames", "frames received"),
      txFrames(this, "tx_frames", "frames transmitted"),
      rxDropsRingFull(this, "rx_drops_ring_full",
                      "frames dropped, RX ring full"),
      txDropsRingFull(this, "tx_drops_ring_full",
                      "frames dropped, TX ring full"),
      irqsRaised(this, "irqs_raised", "interrupts raised"),
      rxReplenishFailures(this, "rx_replenish_failures",
                          "skb pool empty at RX replenish"),
      rxFramesPerQueue(this, "rx_frames_per_queue",
                       "frames received per RX queue",
                       queueBucketNames(num_rx_queues)),
      idx(index), kernel(kernel_ref), pool(pool_ref), wire(wire_ref),
      cfg(config),
      txLock(this, "tx_lock", prof::FuncId::LockDevQueue,
             kernel_ref.addressSpace().alloc(mem::Region::KernelData, 64)),
      txDmaEvents(kernel_ref.eventQueue()),
      txDoneEvents(kernel_ref.eventQueue())
{
    if (num_rx_queues < 1)
        sim::fatal("NIC %d: num_rx_queues must be >= 1, got %d", index,
                   num_rx_queues);

    // Address-space layout and skb-pool draw order below must reduce,
    // at num_rx_queues == 1, to exactly the single-queue sequence (mmio,
    // rx ring, tx ring, ring priming, vector registration): the
    // StaticPaper equivalence regression depends on it.
    auto &aspace = kernel.addressSpace();
    mmio = aspace.alloc(mem::Region::Mmio, 4096);

    queues.resize(static_cast<std::size_t>(num_rx_queues));
    for (auto &q : queues) {
        q.descBase = aspace.alloc(
            mem::Region::NicRings,
            static_cast<std::uint64_t>(cfg.rxRingSize) * 16);
    }
    txDescBase = aspace.alloc(mem::Region::NicRings,
                              static_cast<std::uint64_t>(cfg.txRingSize) *
                                  16);

    for (auto &q : queues) {
        q.ringSkbs.reserve(static_cast<std::size_t>(cfg.rxRingSize));
        for (int i = 0; i < cfg.rxRingSize; ++i) {
            SkBuff skb = pool.allocRaw();
            if (!skb.valid())
                sim::fatal("skb pool too small to prime NIC %d RX ring",
                           index);
            q.ringSkbs.push_back(skb);
        }
    }

    for (int q = 0; q < num_rx_queues; ++q) {
        // Queue 0 keeps the NIC's own name so single-queue vector
        // naming (and trace output) matches the pre-steering code.
        queues[static_cast<std::size_t>(q)].vector =
            kernel.irqController().registerVector(
                q == 0 ? name : sim::format("%s-q%d", name.c_str(), q),
                [this, q](os::ExecContext &ctx) { isr(ctx, q); },
                prof::nicIrqFunc(index));
        queues[static_cast<std::size_t>(q)].moderation =
            std::make_unique<ModerationEvent>(*this, q);
    }

    wire.attachA([this](const Packet &pkt) { onWirePacket(pkt); });
}

Nic::~Nic()
{
    // The event queue may outlive this NIC; take the moderation events
    // off it so their destructors don't see them scheduled (the pools
    // do the same for theirs).
    sim::EventQueue &eq = kernel.eventQueue();
    for (auto &q : queues) {
        if (q.moderation->scheduled())
            eq.deschedule(q.moderation.get());
    }
}

int
Nic::rxPending() const
{
    int total = 0;
    for (const auto &q : queues)
        total += static_cast<int>(q.pendingRx.size());
    return total;
}

bool
Nic::xmitFrame(os::ExecContext &ctx, const Packet &pkt,
               sim::Addr data_addr)
{
    if (txInFlight >= cfg.txRingSize) {
        ++txDropsRingFull;
        return false;
    }
    // dev_queue_xmit grabs this device's queue lock around the
    // descriptor post.
    ctx.lockAcquire(txLock);
    const int desc = txNextDesc;
    txNextDesc = (txNextDesc + 1) % cfg.txRingSize;
    ++txInFlight;
    ++txFrames;

    // Descriptor write plus the TDT doorbell (posted uncached write).
    ctx.charge(prof::FuncId::E1000Xmit, 200,
               {cpu::MemTouch{txDescBase + static_cast<sim::Addr>(desc) *
                                  16,
                              16, true},
                cpu::MemTouch{mmio + 0x3818, 4, true}});
    ctx.lockRelease(txLock);

    // DMA pulls the payload and hands the frame to the wire; the
    // completion descriptor writes back after serialization.
    const sim::Tick ser_ticks = Wire::serializationTicks(pkt);
    const sim::Tick start = kernel.now() + cfg.dmaDelayTicks;

    TxDmaEvent *dma_ev = txDmaEvents.acquire(*this);
    dma_ev->pkt = pkt;
    dma_ev->dataAddr = data_addr;
    dma_ev->dmaLen = pkt.seg.len;
    kernel.eventQueue().schedule(dma_ev, start);

    TxDoneEvent *done_ev = txDoneEvents.acquire(*this);
    done_ev->pkt = pkt;
    done_ev->descIdx = desc;
    kernel.eventQueue().schedule(done_ev, start + ser_ticks);
    return true;
}

void
Nic::onWirePacket(const Packet &pkt)
{
    if (faults) {
        if (pkt.corrupt) {
            // Hardware checksum offload catches the damage at zero CPU
            // cost: the frame dies before it touches a descriptor.
            faults->noteCsumDrop();
            return;
        }
        if (faults->rxStallActive(kernel.now()))
            return; // ring stall window: frame lost at the device
    }
    const int qi = steer ? steer->rxQueue(idx, pkt) : 0;
    if (qi < 0 || qi >= static_cast<int>(queues.size()))
        sim::panic("NIC %d: steering chose RX queue %d of %zu", idx, qi,
                   queues.size());
    RxQueue &rxq = queues[static_cast<std::size_t>(qi)];

    if (static_cast<int>(rxq.pendingRx.size()) >= cfg.rxRingSize) {
        ++rxDropsRingFull;
        return;
    }
    const int desc = rxq.nextDesc;
    rxq.nextDesc = (rxq.nextDesc + 1) % cfg.rxRingSize;
    const SkBuff &skb = rxq.ringSkbs[static_cast<std::size_t>(desc)];

    // DMA the frame into the posted buffer and write the descriptor
    // back: every cached copy of those lines dies here, which is why
    // RX payload is always cold to the CPU.
    const std::uint32_t frame_bytes =
        std::min<std::uint32_t>(pkt.seg.len + 66, SkbPool::dataBytes);
    mem::DmaResult dma =
        kernel.snoopDomain().dma(skb.dataAddr, frame_bytes);
    const mem::DmaResult dma2 = kernel.snoopDomain().dma(
        rxq.descBase + static_cast<sim::Addr>(desc) * 16, 16);
    for (int c = 0; c < kernel.numCpus(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        dma.stolenFrom[ci] += dma2.stolenFrom[ci];
        if (dma.stolenFrom[ci])
            kernel.core(c).notifyLinesStolen(dma.stolenFrom[ci]);
    }

    ++rxFrames;
    rxFramesPerQueue[static_cast<std::size_t>(qi)] += 1;
    if (sim::TimelineTracer *tl = kernel.timeline();
        tl && tl->wants(sim::TraceFlag::Tcp)) {
        tl->asyncBegin(sim::TraceFlag::Tcp, packetSpanId(pkt),
                       kernel.now(),
                       sim::format("pkt:%08x", flowHash32(pkt.flow)));
    }
    rxq.pendingRx.push_back(PendingRx{pkt, skb, desc});
    requestIrq(qi);
}

void
Nic::requestIrq(int queue)
{
    RxQueue &rxq = queues[static_cast<std::size_t>(queue)];
    if (rxq.masked)
        return; // the pending softirq will notice the new work
    const sim::Tick now = kernel.now();
    if (now >= rxq.nextIrqAllowed) {
        raiseNow(queue);
    } else if (!rxq.moderation->scheduled()) {
        kernel.eventQueue().schedule(rxq.moderation.get(),
                                     rxq.nextIrqAllowed);
    }
}

void
Nic::onModerationExpired(int queue)
{
    RxQueue &rxq = queues[static_cast<std::size_t>(queue)];
    if (!rxq.masked &&
        (!rxq.pendingRx.empty() ||
         (queue == 0 && !pendingTxDone.empty())))
        raiseNow(queue);
}

void
Nic::raiseNow(int queue)
{
    RxQueue &rxq = queues[static_cast<std::size_t>(queue)];
    if (faults && faults->irqLost()) {
        // The MSI write is lost (or coalesced away). Leave the vector
        // unmasked and re-arm moderation so the pending work is found
        // at the next window — delayed, not deadlocked.
        rxq.nextIrqAllowed = kernel.now() + cfg.irqGapTicks;
        if (!rxq.moderation->scheduled()) {
            kernel.eventQueue().schedule(rxq.moderation.get(),
                                         rxq.nextIrqAllowed);
        }
        return;
    }
    rxq.masked = true;
    rxq.nextIrqAllowed = kernel.now() + cfg.irqGapTicks;
    ++irqsRaised;
    kernel.irqController().raise(rxq.vector);
}

void
Nic::isr(os::ExecContext &ctx, int queue)
{
    // Read ICR (uncached), ack, leave the device masked; the clear for
    // the hardware interrupt is booked to this ISR symbol.
    ctx.charge(prof::nicIrqFunc(idx), 150,
               {cpu::MemTouch{mmio + 0xc0, 4, false}},
               /*overlap=*/1.0, /*async_clears=*/1);
    if (isrHook)
        isrHook(ctx, *this, queue);
}

bool
Nic::clean(os::ExecContext &ctx, int queue, int budget)
{
    RxQueue &rxq = queues[static_cast<std::size_t>(queue)];
    sim::TimelineTracer *tl = kernel.timeline();
    const bool tracing = tl && tl->wants(sim::TraceFlag::Nic);
    const sim::Tick poll_start = tracing ? ctx.estimatedNow() : 0;

    // TX completions: descriptor write-backs arrived by DMA. They
    // signal through queue 0, so only its poll pass drains them.
    if (queue == 0) {
        while (!pendingTxDone.empty()) {
            const PendingTxDone done = pendingTxDone.front();
            pendingTxDone.pop_front();
            ctx.charge(prof::FuncId::E1000CleanTx, 100,
                       {cpu::MemTouch{txDescBase +
                                          static_cast<sim::Addr>(
                                              done.descIdx) *
                                              16,
                                      16, false}});
            --txInFlight;
            if (txComplete)
                txComplete(ctx, done.pkt);
        }
    }

    int processed = 0;
    while (processed < budget && !rxq.pendingRx.empty()) {
        const PendingRx rx = rxq.pendingRx.front();
        rxq.pendingRx.pop_front();

        ctx.charge(prof::FuncId::E1000CleanRx, 260,
                   {cpu::MemTouch{rxq.descBase +
                                      static_cast<sim::Addr>(rx.descIdx) *
                                          16,
                                  16, true},
                    cpu::MemTouch{rx.skb.structAddr, 96, true}});

        // Replenish the descriptor with a fresh buffer.
        SkBuff fresh = pool.alloc(ctx);
        if (!fresh.valid()) {
            // No buffer: recycle the old one and drop the frame.
            ++rxReplenishFailures;
            continue;
        }
        rxq.ringSkbs[static_cast<std::size_t>(rx.descIdx)] = fresh;

        ctx.charge(prof::FuncId::NetifRx, 60, {});
        if (rxDeliver)
            rxDeliver(ctx, rx.pkt, rx.skb);
        ++processed;
    }

    const bool more = !rxq.pendingRx.empty();
    if (!more) {
        rxq.masked = false;
        // Work may have arrived between the last pop and the unmask.
        if (!rxq.pendingRx.empty() ||
            (queue == 0 && !pendingTxDone.empty()))
            requestIrq(queue);
    }
    if (tracing) {
        tl->complete(sim::TraceFlag::Nic, ctx.cpuId(), poll_start,
                     ctx.estimatedNow() - poll_start,
                     groupName() + sim::format(".napi-q%d", queue));
    }
    return more;
}

} // namespace na::net
