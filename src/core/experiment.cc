#include "src/core/experiment.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::core {

RunResult
Experiment::extract(System &system, double seconds,
                    std::uint64_t payload_bytes)
{
    os::Kernel &kern = system.kernel();
    prof::BinAccounting &acct = kern.accounting();

    RunResult r;
    r.seconds = seconds;
    r.payloadBytes = payload_bytes;
    r.throughputMbps =
        seconds > 0
            ? static_cast<double>(payload_bytes) * 8.0 / seconds / 1.0e6
            : 0.0;

    double util_sum = 0;
    double busy_total = 0;
    for (int c = 0; c < kern.numCpus(); ++c) {
        const cpu::PerfCounters &pc = kern.core(c).counters;
        r.utilPerCpu[static_cast<std::size_t>(c)] = pc.utilization();
        util_sum += pc.utilization();
        busy_total += pc.busyCycles.value();
        r.irqs += static_cast<std::uint64_t>(pc.irqsReceived.value());
        r.ipis += static_cast<std::uint64_t>(pc.ipisReceived.value());
        r.migrations +=
            static_cast<std::uint64_t>(pc.migrationsIn.value());
        r.contextSwitches +=
            static_cast<std::uint64_t>(pc.contextSwitches.value());
    }
    r.cpuUtil = util_sum / kern.numCpus();

    const double used_ghz = seconds > 0 ? busy_total / seconds / 1.0e9
                                        : 0.0;
    const double gbps = r.throughputMbps / 1000.0;
    r.ghzPerGbps = gbps > 0 ? used_ghz / gbps : 0.0;

    auto fill = [&acct](BinMetrics &m, auto getter) {
        using prof::Event;
        m.cycles = getter(Event::Cycles);
        m.instructions = getter(Event::Instructions);
        m.branches = getter(Event::Branches);
        m.brMispredicts = getter(Event::BrMispredicts);
        m.llcMisses = getter(Event::LlcMisses);
        m.l2Misses = getter(Event::L2Misses);
        m.tcMisses = getter(Event::TcMisses);
        m.itlbMisses = getter(Event::ItlbMisses);
        m.dtlbMisses = getter(Event::DtlbMisses);
        m.machineClears = getter(Event::MachineClears);
        (void)acct;
    };

    const auto total_cycles =
        static_cast<double>(acct.total(prof::Event::Cycles));

    auto derive = [total_cycles](BinMetrics &m) {
        m.pctCycles = total_cycles > 0
                          ? 100.0 * static_cast<double>(m.cycles) /
                                total_cycles
                          : 0.0;
        m.cpi = m.instructions
                    ? static_cast<double>(m.cycles) /
                          static_cast<double>(m.instructions)
                    : 0.0;
        m.mpi = m.instructions
                    ? static_cast<double>(m.llcMisses) /
                          static_cast<double>(m.instructions)
                    : 0.0;
        m.pctBranches = m.instructions
                            ? 100.0 * static_cast<double>(m.branches) /
                                  static_cast<double>(m.instructions)
                            : 0.0;
        m.pctBrMispred = m.branches
                             ? 100.0 *
                                   static_cast<double>(m.brMispredicts) /
                                   static_cast<double>(m.branches)
                             : 0.0;
    };

    for (std::size_t b = 0; b < prof::numBins; ++b) {
        const auto bin = static_cast<prof::Bin>(b);
        fill(r.bins[b],
             [&acct, bin](prof::Event e) { return acct.byBin(bin, e); });
        derive(r.bins[b]);
    }
    fill(r.overall, [&acct](prof::Event e) { return acct.total(e); });
    derive(r.overall);

    for (std::size_t e = 0; e < prof::numEvents; ++e)
        r.eventTotals[e] = acct.total(static_cast<prof::Event>(e));

    if (const prof::IntervalRecorder *rec = system.intervalRecorder())
        r.intervals = rec->series();

    if (system.config().workloadKind() == workload::Kind::FlowMix) {
        FlowStats &f = r.flows;
        auto u64 = [](const stats::Scalar &s) {
            return static_cast<std::uint64_t>(s.value());
        };
        // Merge per-client completion logs by bucket bound.
        std::map<std::uint64_t, FlowSizeBucketStat> merged;
        for (int i = 0; i < system.numConnections(); ++i) {
            const net::FlowClientPeer &fp = system.flowPeer(i);
            f.started += u64(fp.flowsStarted);
            f.completed += u64(fp.flowsCompleted);
            f.deferredArrivals += u64(fp.deferredArrivals);
            for (const net::FlowSizeBucket &b : fp.sizeBuckets()) {
                if (!b.flows)
                    continue;
                FlowSizeBucketStat &m = merged[b.maxBytes];
                m.maxBytes = b.maxBytes;
                m.flows += b.flows;
                m.bytes += b.bytes;
            }
            f.retired += system.mixApp(i).flowsRetired();
        }
        for (const auto &[bound, stat] : merged)
            f.sizeBuckets.push_back(stat);
        const net::Driver &drv = system.driver();
        f.accepted = u64(drv.synsAccepted);
        f.acceptDropsBacklog = u64(drv.acceptDropsBacklog);
        f.acceptDropsPool = u64(drv.acceptDropsPool);
        f.unmatchedFrames = u64(drv.framesUnmatched);
        const net::SteeringStats ss = system.steering().stats();
        f.flowMigrations = ss.flowMigrations;
        f.flowLearns = ss.flowLearns;
        f.flowLearnDrops = ss.flowLearnDrops;
        f.oooArrivals = u64(system.socketPool().oooArrivals);
        f.liveConnections = drv.connectionTable().size();

        // End-to-end reordering costs: SUT-side signals from the
        // child-socket slab, sender-side recovery costs from the
        // client boxes, and the migration driver's hop count.
        ReorderStats &ro = r.reorder;
        const net::SocketPool &sp = system.socketPool();
        ro.oooArrivals = u64(sp.oooArrivals);
        ro.oooWindows = u64(sp.oooWindows);
        ro.oooWindowTicks = u64(sp.oooWindowTicks);
        for (std::size_t b = 0; b < ro.oooDepthHist.size(); ++b)
            ro.oooDepthHist[b] =
                static_cast<std::uint64_t>(sp.oooDepth[b]);
        for (int i = 0; i < system.numConnections(); ++i) {
            const net::FlowClientPeer &fp = system.flowPeer(i);
            ro.dupAckBursts += u64(fp.dupAckBursts);
            ro.retransmits += u64(fp.retransmits);
            ro.spuriousRetransmits += u64(fp.spuriousRetransmits);
        }
        ro.senderHops = system.senderHopCount();
    }

    r.steeringPolicy = std::string(system.steering().name());
    r.rxFramesPerQueue.assign(
        static_cast<std::size_t>(system.steering().numQueues()), 0);
    for (int i = 0; i < system.numConnections(); ++i) {
        const net::Nic &nic = system.nic(i);
        for (int q = 0; q < nic.numRxQueues(); ++q)
            r.rxFramesPerQueue[static_cast<std::size_t>(q)] +=
                nic.rxFramesOnQueue(q);
        r.txDropsRingFull +=
            static_cast<std::uint64_t>(nic.txDropsRingFull.value());
        r.rxDropsRingFull +=
            static_cast<std::uint64_t>(nic.rxDropsRingFull.value());
    }

    return r;
}

RunResult
Experiment::measure(System &system, const RunSchedule &schedule)
{
    const auto wall_start = std::chrono::steady_clock::now();
    auto checkWall = [&](const char *phase) {
        if (schedule.wallLimitSeconds <= 0.0)
            return;
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        if (elapsed > schedule.wallLimitSeconds) {
            throw std::runtime_error(sim::format(
                "watchdog: %s phase still running after %.1f wall "
                "seconds (limit %.1f, simulated tick %llu) — the "
                "simulation is not making useful progress",
                phase, elapsed, schedule.wallLimitSeconds,
                static_cast<unsigned long long>(
                    system.eventQueue().now())));
        }
    };
    // Run in 1/16 slices so the wall clock is consulted along the way.
    // Slicing runUntil cannot reorder events, so a limited run that
    // finishes in time is bit-identical to an unlimited one.
    auto runSliced = [&](sim::Tick duration, const char *phase) {
        if (schedule.wallLimitSeconds <= 0.0) {
            system.runFor(duration);
            return;
        }
        const sim::Tick slice = std::max<sim::Tick>(duration / 16, 1);
        const sim::Tick end = system.eventQueue().now() + duration;
        while (system.eventQueue().now() < end) {
            system.runFor(
                std::min<sim::Tick>(slice,
                                    end - system.eventQueue().now()));
            checkWall(phase);
        }
    };

    if (!system.establishAll(schedule.establishDeadline)) {
        throw std::runtime_error(sim::format(
            "connections failed to establish before the deadline "
            "(tick %llu)",
            static_cast<unsigned long long>(system.eventQueue().now())));
    }
    checkWall("establish");

    runSliced(schedule.warmup, "warmup");
    system.beginMeasurement();
    const std::uint64_t sink_before = system.sinkBytes();
    const sim::Tick t0 = system.eventQueue().now();
    runSliced(schedule.measure, "measure");
    system.endMeasurement();

    const sim::Tick t1 = system.eventQueue().now();
    const std::uint64_t payload = system.sinkBytes() - sink_before;
    const double seconds =
        sim::ticksToSeconds(t1 - t0, system.config().platform.freqHz);

    return extract(system, seconds, payload);
}

RunResult
Experiment::run(const SystemConfig &config, const RunSchedule &schedule)
{
    System system(config);
    return measure(system, schedule);
}

} // namespace na::core
