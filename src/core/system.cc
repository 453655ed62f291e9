#include "src/core/system.hh"

#include <cmath>
#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::core {

namespace {

/** RunResult::utilPerCpu and the 32-bit affinity masks bound this. */
constexpr int maxModelCpus = 8;

} // namespace

void
SystemConfig::validate() const
{
    if (numConnections < 1) {
        throw std::runtime_error(sim::format(
            "SystemConfig: numConnections must be positive, got %d "
            "(each connection is one NIC plus one ttcp process)",
            numConnections));
    }
    if (platform.numCpus < 1 || platform.numCpus > maxModelCpus) {
        throw std::runtime_error(sim::format(
            "SystemConfig: platform.numCpus must be in [1, %d], got %d "
            "(per-CPU result arrays and affinity masks cap the model)",
            maxModelCpus, platform.numCpus));
    }
    if (!(platform.orderingClearProb >= 0.0 &&
          platform.orderingClearProb <= 1.0)) {
        throw std::runtime_error(sim::format(
            "SystemConfig: platform.orderingClearProb must be a "
            "probability in [0, 1], got %g",
            platform.orderingClearProb));
    }
    workload::validateSpec(workload);
    if (std::isnan(statsIntervalUs) || statsIntervalUs < 0.0) {
        throw std::runtime_error(sim::format(
            "SystemConfig: statsIntervalUs must be >= 0 (0 disables "
            "interval stats), got %g",
            statsIntervalUs));
    }
    if (statsIntervalUs > 0.0 &&
        sim::secondsToTicks(statsIntervalUs * 1.0e-6, platform.freqHz) <
            1) {
        throw std::runtime_error(sim::format(
            "SystemConfig: statsIntervalUs = %g is below one CPU cycle "
            "at %g Hz — the snapshot event would never advance time",
            statsIntervalUs, platform.freqHz));
    }

    if (steering.numQueues < 1 ||
        steering.numQueues > maxModelCpus) {
        throw std::runtime_error(sim::format(
            "SystemConfig: steering.numQueues must be in [1, %d], got "
            "%d (one MSI-like vector per queue, bounded by the CPU "
            "model)",
            maxModelCpus, steering.numQueues));
    }
    if (steering.kind == net::SteeringKind::StaticPaper &&
        steering.numQueues != 1) {
        throw std::runtime_error(sim::format(
            "SystemConfig: the static (paper) steering policy is "
            "single-queue by definition, got numQueues=%d — use rss or "
            "flow_director for multi-queue",
            steering.numQueues));
    }
    if (steering.flowTableSize < 1) {
        throw std::runtime_error(sim::format(
            "SystemConfig: steering.flowTableSize must be positive, "
            "got %d",
            steering.flowTableSize));
    }

    faults.validate("SystemConfig: faults.");
}

std::string
SystemConfig::summary() const
{
    std::string s;
    if (workloadKind() == workload::Kind::Ttcp) {
        s = sim::format(
            "%s %uB %s x%d, %d cpus, steering=%s q=%d, rot=%llu",
            ttcp().mode == workload::TtcpMode::Transmit ? "TX" : "RX",
            ttcp().msgSize, std::string(affinityName(affinity)).c_str(),
            numConnections, platform.numCpus,
            std::string(net::steeringKindName(steering.kind)).c_str(),
            steering.numQueues,
            static_cast<unsigned long long>(irqRotationTicks));
    } else {
        s = sim::format(
            "MIX %s x%d, %d cpus, steering=%s q=%d, rot=%llu",
            std::string(affinityName(affinity)).c_str(),
            numConnections, platform.numCpus,
            std::string(net::steeringKindName(steering.kind)).c_str(),
            steering.numQueues,
            static_cast<unsigned long long>(irqRotationTicks));
        s += workload::specLabel(workload);
    }
    if (faults.enabled())
        s += sim::format(", faults=%s", faults.label().c_str());
    return s;
}

System::System(const SystemConfig &config)
    : stats::Group(nullptr, ""), cfg(config)
{
    cfg.validate();
    eq.setStallThreshold(cfg.stallEventThreshold);

    kern = std::make_unique<os::Kernel>(this, eq, cfg.platform);
    if (cfg.irqRotationTicks > 0)
        kern->irqController().setRotation(cfg.irqRotationTicks);

    // The steering policy decides flow -> queue, queue vector -> CPU,
    // and process -> CPU for every layer below; the paper's four
    // affinity modes are the StaticPaper instance of it.
    net::SteeringTopology topo;
    topo.numCpus = cfg.platform.numCpus;
    topo.numNics = cfg.numConnections;
    topo.paperCpu = [this](int conn) { return cpuForConn(conn); };
    topo.rotationEnabled = cfg.irqRotationTicks > 0;
    steerPolicy =
        net::makeSteeringPolicy(cfg.steering, cfg.affinity, topo);

    const bool is_mix = cfg.workloadKind() == workload::Kind::FlowMix;

    int pool_slots = cfg.skbPoolSlots;
    if (pool_slots == 0) {
        // RX rings pin one buffer per descriptor (per queue); sndbufs
        // bound TX use.
        pool_slots = cfg.numConnections * cfg.nic.rxRingSize *
                         cfg.steering.numQueues +
                     cfg.numConnections *
                         (static_cast<int>(cfg.tcp.sndBufBytes /
                                           cfg.tcp.mss) +
                          8) +
                     512;
        if (is_mix) {
            // Short flows never fill a whole sndbuf; budget a modest
            // in-flight allowance per concurrent flow instead.
            pool_slots = cfg.numConnections * cfg.nic.rxRingSize *
                             cfg.steering.numQueues +
                         cfg.numConnections *
                             cfg.mix().maxConcurrentFlows * 16 +
                         1024;
        }
    }
    pool = std::make_unique<net::SkbPool>(this, *kern, pool_slots);

    std::size_t conn_buckets = 1024;
    if (is_mix) {
        conn_buckets = static_cast<std::size_t>(cfg.numConnections) *
                           static_cast<std::size_t>(
                               cfg.mix().maxConcurrentFlows) *
                           2 +
                       64;
    }
    drv = std::make_unique<net::Driver>(this, *kern, *pool,
                                        conn_buckets);
    drv->setSteering(steerPolicy.get());

    if (is_mix) {
        const int capacity =
            cfg.numConnections * cfg.mix().maxConcurrentFlows + 64;
        sockPool = std::make_unique<net::SocketPool>(
            this, *kern, *drv, *pool, capacity, cfg.tcp);
        drv->setSocketPool(sockPool.get());
    }

    for (int i = 0; i < cfg.numConnections; ++i) {
        wires.push_back(std::make_unique<net::Wire>(
            this, sim::format("wire%d", i), eq));
        nics.push_back(std::make_unique<net::Nic>(
            this, sim::format("nic%d", i), i, *kern, *pool, *wires[i],
            cfg.nic, cfg.steering.numQueues));
        nics[i]->setSteering(steerPolicy.get());
        drv->attachNic(*nics[i]);

        if (cfg.faults.enabled()) {
            faultInjectors.push_back(
                std::make_unique<net::FaultInjector>(
                    this, sim::format("faults%d", i), cfg.faults,
                    cfg.platform.seed * 100003ULL +
                        static_cast<std::uint64_t>(i) * 7919ULL + 13));
            wires[i]->setFaultInjector(faultInjectors.back().get());
            nics[i]->setFaultInjector(faultInjectors.back().get());
        }

        if (!is_mix) {
            sockets.push_back(std::make_unique<net::Socket>(
                this, sim::format("sock%d", i), *kern, *drv, *pool,
                net::connFlowKey(i), cfg.tcp));
            drv->bindSocket(*sockets[i], *nics[i]);

            peers.push_back(std::make_unique<net::RemotePeer>(
                this, sim::format("peer%d", i), eq, *wires[i],
                net::connFlowKey(i),
                cfg.ttcp().mode == workload::TtcpMode::Transmit
                    ? net::PeerRole::Sink
                    : net::PeerRole::Source,
                cfg.tcp));
            peers[i]->start();
        } else {
            const workload::FlowMixConfig &mix = cfg.mix();
            net::FlowKey listen_key;
            listen_key.localAddr = net::sutAddr(i);
            listen_key.localPort = mix.listenPort;
            sockets.push_back(std::make_unique<net::Socket>(
                this, sim::format("listen%d", i), *kern, *drv, *pool,
                listen_key, cfg.tcp));
            drv->listenSocket(*sockets[i], *nics[i],
                              mix.listenBacklog);

            flowPeers.push_back(std::make_unique<net::FlowClientPeer>(
                this, sim::format("flowsrc%d", i), eq, *wires[i], i, mix,
                cfg.tcp,
                cfg.platform.seed * 524287ULL +
                    static_cast<std::uint64_t>(i) * 31ULL + 7));
            flowPeers[i]->start();
        }
    }

    // Steering plumbing: per-queue interrupt masks via smp_affinity,
    // process pins via sched_setaffinity — both provisioned from the
    // policy (paper Section 4 under StaticPaper).
    for (int i = 0; i < cfg.numConnections; ++i) {
        for (int q = 0; q < nics[i]->numRxQueues(); ++q) {
            kern->irqController().setSmpAffinity(
                nics[i]->queueVector(q),
                steerPolicy->vectorAffinity(i, q));
        }
    }

    for (int i = 0; i < cfg.numConnections; ++i) {
        if (!is_mix) {
            apps.push_back(std::make_unique<workload::TtcpApp>(
                this, sim::format("ttcp%d", i), *kern, *sockets[i],
                cfg.ttcp()));
            tasks.push_back(
                kern->createTask(sim::format("ttcp%d", i),
                                 apps[i].get(),
                                 steerPolicy->taskAffinity(i)));
        } else {
            mixApps.push_back(std::make_unique<workload::FlowMixApp>(
                this, sim::format("mix%d", i), *kern, *drv,
                *sockets[i]));
            tasks.push_back(
                kern->createTask(sim::format("mix%d", i),
                                 mixApps[i].get(),
                                 steerPolicy->taskAffinity(i)));
        }
    }

    if (is_mix && cfg.mix().senderHopTicks > 0) {
        hopEvent = std::make_unique<sim::LambdaEvent>(
            "sender_hop", [this] { hopSenderTasks(); });
        eq.schedule(hopEvent.get(), cfg.mix().senderHopTicks);
    }

    if (cfg.statsIntervalUs > 0.0) {
        const sim::Tick interval = sim::secondsToTicks(
            cfg.statsIntervalUs * 1.0e-6, cfg.platform.freqHz);
        recorder = std::make_unique<prof::IntervalRecorder>(
            eq, kern->accounting(), interval, cfg.steering.numQueues,
            [this](int q) {
                std::uint64_t sum = 0;
                for (const auto &n : nics) {
                    if (q < n->numRxQueues())
                        sum += n->rxFramesOnQueue(q);
                }
                return sum;
            });
    }

    kern->start();
}

System::~System()
{
    if (hopEvent)
        eq.deschedule(hopEvent.get());
}

void
System::hopSenderTasks()
{
    // Scheduler-induced migration: rotate every server task to the
    // next CPU. The task's next transmissions (window updates, FINs)
    // leave from the new core; under Flow Director that
    // re-learns its live flows onto the new core's RX queue while
    // packets already behind the old queue's vector are still in
    // flight — the reordering window bench/ext_reorder measures.
    ++hopRound;
    const int ncpu = cfg.platform.numCpus;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const int cpu =
            (static_cast<int>(i) + hopRound) % ncpu;
        kern->schedSetaffinity(tasks[i], 1u << cpu);
        ++senderHops;
    }
    eq.schedule(hopEvent.get(), eq.now() + cfg.mix().senderHopTicks);
}

void
System::setTimelineTracer(sim::TimelineTracer *tracer)
{
    kern->setTimeline(tracer);
}

sim::CpuId
System::cpuForConn(int i) const
{
    // Block assignment like the paper: NICs 1-4 -> CPU0, 5-8 -> CPU1.
    return static_cast<sim::CpuId>(
        static_cast<long>(i) * cfg.platform.numCpus /
        cfg.numConnections);
}

bool
System::establishAll(sim::Tick deadline)
{
    // The mix workload has no pre-established population: flows come
    // up (and go away) continuously once the client peers start.
    if (cfg.workloadKind() == workload::Kind::FlowMix)
        return true;
    const sim::Tick slice = 1'000'000; // 0.5 ms
    while (eq.now() < deadline) {
        bool all = true;
        for (const auto &s : sockets) {
            if (!s->established()) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
        eq.runUntil(eq.now() + slice);
    }
    return false;
}

void
System::runFor(sim::Tick duration)
{
    eq.runUntil(eq.now() + duration);
}

void
System::drainFlows()
{
    // Arrivals stop by themselves once totalFlows have been launched;
    // the server must also see the final ACKs (still in flight when a
    // client finishes) and retire its children.
    auto drained = [this] {
        for (const auto &fp : flowPeers) {
            if (fp->flowsCompletedCount() < cfg.mix().totalFlows ||
                fp->liveFlows() != 0)
                return false;
        }
        return drv->connectionTable().size() == 0 &&
               sockPool->inUse() == 0;
    };
    const sim::Tick slice = 20'000'000;      // 10 ms
    const sim::Tick limit = 40'000'000'000; // 20 s
    while (!drained()) {
        runFor(slice);
        if (eq.now() > limit)
            break;
    }
}

void
System::beginMeasurement()
{
    kern->accounting().reset();
    resetStats();
    for (const auto &fp : flowPeers)
        fp->resetFlowLog();
    kern->finalizeIdle(eq.now()); // clamp open idle windows...
    // ...and drop what finalizeIdle just accumulated.
    for (int c = 0; c < kern->numCpus(); ++c)
        kern->core(c).counters.idleCycles.reset();
    if (recorder)
        recorder->start();
    if (sim::TimelineTracer *tl = kern->timeline())
        tl->clear();
}

void
System::endMeasurement()
{
    kern->finalizeIdle(eq.now());
    if (recorder)
        recorder->finalize();
}

std::uint64_t
System::sinkBytes() const
{
    std::uint64_t total = 0;
    if (cfg.workloadKind() == workload::Kind::FlowMix) {
        // The SUT's server processes are the sink for client payload.
        for (const auto &a : mixApps)
            total += a->bytesReceived();
        return total;
    }
    if (cfg.ttcp().mode == workload::TtcpMode::Transmit) {
        for (const auto &p : peers)
            total += p->bytesReceived();
    } else {
        for (const auto &a : apps)
            total += a->bytesRead();
    }
    return total;
}

} // namespace na::core
