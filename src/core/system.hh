/**
 * @file
 * The complete simulated cluster: SUT + NICs + wires + client peers.
 *
 * Mirrors the paper's setup: one connection per physical NIC, one ttcp
 * process per connection, clients provisioned off the SUT's critical
 * path. An AffinityMode maps connections/processes onto CPUs the same
 * way the paper's /proc/irq/N/smp_affinity writes and
 * sys_sched_setaffinity calls did.
 */

#ifndef NETAFFINITY_CORE_SYSTEM_HH
#define NETAFFINITY_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "src/core/affinity.hh"
#include "src/cpu/platform_config.hh"
#include "src/net/driver.hh"
#include "src/net/fault_injector.hh"
#include "src/net/nic.hh"
#include "src/net/steering.hh"
#include "src/net/peer.hh"
#include "src/net/skb.hh"
#include "src/net/socket.hh"
#include "src/net/wire.hh"
#include "src/net/flow_client.hh"
#include "src/net/socket_pool.hh"
#include "src/os/kernel.hh"
#include "src/prof/interval.hh"
#include "src/sim/event_queue.hh"
#include "src/stats/stats.hh"
#include "src/sim/timeline.hh"
#include "src/workload/flowmix.hh"
#include "src/workload/spec.hh"
#include "src/workload/ttcp.hh"

namespace na::core {

/** Everything needed to stand up one experiment system. */
struct SystemConfig
{
    cpu::PlatformConfig platform{};
    AffinityMode affinity = AffinityMode::None;
    int numConnections = 8; ///< one NIC + one server process each
    /**
     * The workload this system runs: the paper's single-flow ttcp
     * (default) or the many-flow churn mix. Exactly one alternative is
     * active; use ttcp()/mix() when the kind is known.
     */
    workload::Spec workload = workload::TtcpConfig{};
    net::TcpConfig tcp{};
    net::NicConfig nic{};
    static constexpr double wireBitsPerSec = 1.0e9;
    static constexpr sim::Tick wireLatencyTicks = 10'000; ///< 5 us
    int skbPoolSlots = 0; ///< 0 = sized automatically
    /**
     * Linux-2.6-style rotating IRQ distribution interval (0 = static
     * smp_affinity, the paper's setup). Nonzero re-targets every
     * vector to the next CPU each interval, within its smp_affinity
     * mask.
     */
    sim::Tick irqRotationTicks = 0;
    /**
     * Flow-steering policy: how flows map to NIC RX queues, queues to
     * CPUs, and processes to CPUs. The default (StaticPaper, 1 queue)
     * reproduces the paper's static setup bit-identically; `affinity`
     * above parameterizes that policy and is ignored by the others.
     */
    net::SteeringConfig steering{};
    /**
     * Interval-stats window in simulated microseconds (0 = off, the
     * default — bit-identical to a build without the observability
     * layer). Nonzero arms a prof::IntervalRecorder over the
     * measurement window, snapshotting per-CPU per-bin counter deltas
     * and per-queue RX frame rates every interval.
     */
    double statsIntervalUs = 0.0;
    /**
     * Injected-fault model applied to every connection's wire + NIC
     * pair. Default-constructed = no faults: no injector is built and
     * the data path is bit-identical to a build without the subsystem.
     */
    sim::FaultPlan faults{};
    /**
     * Event-queue non-progress guard: abort (by exception) any run
     * that fires this many events without simulated time advancing.
     * The value is far above any legitimate same-tick cascade, so only
     * genuine livelocks trip it.
     */
    static constexpr std::uint64_t stallEventThreshold = 10'000'000;
    /**
     * Sanity-check the configuration.
     * @throws std::runtime_error describing the first violation.
     *
     * Checked from the System constructor, so an invalid config never
     * produces a half-built simulation.
     */
    void validate() const;

    /** @return compact one-line description for diagnostics. */
    std::string summary() const;

    workload::Kind workloadKind() const
    {
        return workload::kindOf(workload);
    }

    /** @name Checked accessors for the active workload alternative @{ */
    workload::TtcpConfig &ttcp()
    {
        return std::get<workload::TtcpConfig>(workload);
    }
    const workload::TtcpConfig &ttcp() const
    {
        return std::get<workload::TtcpConfig>(workload);
    }
    workload::FlowMixConfig &mix()
    {
        return std::get<workload::FlowMixConfig>(workload);
    }
    const workload::FlowMixConfig &mix() const
    {
        return std::get<workload::FlowMixConfig>(workload);
    }
    /** @} */
};

/** The assembled simulation. */
class System : public stats::Group
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    const SystemConfig &config() const { return cfg; }
    sim::EventQueue &eventQueue() { return eq; }

    os::Kernel &kernel() { return *kern; }
    net::Driver &driver() { return *drv; }
    net::SkbPool &skbPool() { return *pool; }

    int numConnections() const { return cfg.numConnections; }
    net::Socket &socket(int i) { return *sockets[i]; }
    net::RemotePeer &peer(int i) { return *peers[i]; }
    net::Nic &nic(int i) { return *nics[i]; }
    net::Wire &wire(int i) { return *wires[i]; }

    /**
     * Fault injector serving connection @p i (nullptr when the config's
     * fault plan is disabled — the common case).
     */
    net::FaultInjector *
    faultInjector(int i)
    {
        return faultInjectors.empty()
                   ? nullptr
                   : faultInjectors[static_cast<std::size_t>(i)].get();
    }
    workload::TtcpApp &app(int i) { return *apps[i]; }
    os::Task &task(int i) { return *tasks[i]; }

    /** @name Many-flow (mix) plane; populated only for FlowMix @{ */
    net::FlowClientPeer &flowPeer(int i) { return *flowPeers[i]; }
    workload::FlowMixApp &mixApp(int i) { return *mixApps[i]; }
    net::SocketPool &socketPool() { return *sockPool; }
    /** @return per-task CPU re-pins the migration driver applied
     *          (mix.senderHopTicks > 0 only; see FlowMixConfig). */
    std::uint64_t senderHopCount() const { return senderHops; }
    /** @} */

    /** The CPU connection @p i is affined to (under Irq/Proc/Full). */
    sim::CpuId cpuForConn(int i) const;

    /** The steering policy this system was provisioned from. */
    net::SteeringPolicy &steering() { return *steerPolicy; }
    const net::SteeringPolicy &steering() const { return *steerPolicy; }

    /**
     * Interval recorder armed by beginMeasurement() when
     * statsIntervalUs > 0 (nullptr otherwise).
     */
    prof::IntervalRecorder *intervalRecorder() { return recorder.get(); }

    /**
     * Attach a caller-owned timeline tracer (nullptr detaches). The
     * buffer is cleared at beginMeasurement() so written traces cover
     * the measurement window, not warmup.
     */
    void setTimelineTracer(sim::TimelineTracer *tracer);
    sim::TimelineTracer *timelineTracer() { return kern->timeline(); }

    /**
     * Run until every connection's handshake completes.
     * @return true on success before @p deadline.
     */
    bool establishAll(sim::Tick deadline);

    /** Advance simulated time by @p duration. */
    void runFor(sim::Tick duration);

    /** Zero all statistics and clamp idle accounting (end of warmup). */
    void beginMeasurement();

    /** Close out idle accounting at the current tick (end of window). */
    void endMeasurement();

    /** @return sum of application-level payload bytes received at the
     *          traffic sinks (peers for TX tests, apps for RX tests). */
    std::uint64_t sinkBytes() const;

  private:
    SystemConfig cfg;
    sim::EventQueue eq;

    std::unique_ptr<os::Kernel> kern;
    std::unique_ptr<net::SteeringPolicy> steerPolicy;
    std::unique_ptr<net::SkbPool> pool;
    std::unique_ptr<net::Driver> drv;
    /** Child-socket slab for the mix workload (null under ttcp). */
    std::unique_ptr<net::SocketPool> sockPool;
    /** One injector per connection (empty when faults are disabled).
     *  Declared before wires/nics — their raw fault pointers must not
     *  outlive the injectors they name. */
    std::vector<std::unique_ptr<net::FaultInjector>> faultInjectors;
    std::vector<std::unique_ptr<net::Wire>> wires;
    std::vector<std::unique_ptr<net::Nic>> nics;
    std::vector<std::unique_ptr<net::Socket>> sockets;
    std::vector<std::unique_ptr<net::RemotePeer>> peers;
    std::vector<std::unique_ptr<net::FlowClientPeer>> flowPeers;
    std::vector<std::unique_ptr<workload::TtcpApp>> apps;
    std::vector<std::unique_ptr<workload::FlowMixApp>> mixApps;
    std::vector<os::Task *> tasks;
    /** Migration driver (armed when mix.senderHopTicks > 0): rotates
     *  every server task to the next CPU each period, forcing Flow
     *  Director to re-steer live flows mid-stream. */
    std::unique_ptr<sim::LambdaEvent> hopEvent;
    std::uint64_t senderHops = 0;
    int hopRound = 0;
    void hopSenderTasks();
    /** Declared after eq/kern/nics: destroyed first, deschedules off
     *  eq while it is still alive, reads counters from live NICs. */
    std::unique_ptr<prof::IntervalRecorder> recorder;
};

} // namespace na::core

#endif // NETAFFINITY_CORE_SYSTEM_HH
