/**
 * @file
 * Flow-steering policies: how arriving flows map onto NIC RX queues,
 * how queue interrupt vectors map onto CPUs, and how the serving
 * processes are pinned.
 *
 * The paper's four affinity modes are one instance of a general
 * mechanism — static per-NIC smp_affinity writes plus
 * sys_sched_setaffinity pins. Modern NICs generalize both sides:
 * Receive Side Scaling hashes each flow into an indirection table of
 * RX queues whose MSI-like vectors are spread across CPUs, and Intel
 * Flow Director keeps an exact-match flow table learned from the
 * transmit path so a flow's RX processing follows the core that last
 * transmitted on it. A SteeringPolicy captures all three:
 *
 *  - StaticPaper: single queue per NIC, masks exactly as the paper's
 *    /proc/irq/N/smp_affinity + sched_setaffinity setup. Results under
 *    this policy are bit-identical to the pre-steering code.
 *  - Rss: Toeplitz hash over the flow id into an indirection table of
 *    numQueues entries; one vector per queue, queue q pinned to CPU
 *    q % numCpus; processes left to the scheduler.
 *  - FlowDirector: exact-match flow table with learn-on-transmit and
 *    RSS hash fallback for unknown flows. Re-learning a migrated flow
 *    moves its RX queue — making reordering visible to TCP, the
 *    effect Wu et al. characterize.
 */

#ifndef NETAFFINITY_NET_STEERING_HH
#define NETAFFINITY_NET_STEERING_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "src/core/affinity.hh"
#include "src/net/segment.hh"
#include "src/sim/types.hh"

namespace na::net {

/** Which steering mechanism a system runs. */
enum class SteeringKind : std::uint8_t
{
    StaticPaper,  ///< the paper's setup: 1 queue, static masks
    Rss,          ///< hash + indirection table, vectors spread
    FlowDirector, ///< exact-match flow table, learn-on-transmit
};

constexpr std::array<SteeringKind, 3> allSteeringKinds = {
    SteeringKind::StaticPaper, SteeringKind::Rss,
    SteeringKind::FlowDirector};

/** @return stable token used in JSON exports and sweep labels. */
constexpr std::string_view
steeringKindName(SteeringKind k)
{
    switch (k) {
      case SteeringKind::StaticPaper:  return "static";
      case SteeringKind::Rss:          return "rss";
      case SteeringKind::FlowDirector: return "flow_director";
      default:                         return "?";
    }
}

/** Steering tunables carried by core::SystemConfig. */
struct SteeringConfig
{
    SteeringKind kind = SteeringKind::StaticPaper;
    /** RX queues per NIC (StaticPaper requires exactly 1). */
    int numQueues = 1;
    /** RSS indirection table entries (the hash is masked by it). */
    static constexpr int rssTableSize = 128;
    static_assert((rssTableSize & (rssTableSize - 1)) == 0,
                  "rssTableSize must be a power of two");
    /** Flow-Director exact-match table capacity. */
    int flowTableSize = 1024;
};

/** What a policy needs to know about the machine it steers. */
struct SteeringTopology
{
    int numCpus = 1;
    int numNics = 1;
    /** The paper's block layout: connection -> CPU. */
    std::function<sim::CpuId(int conn)> paperCpu;
    /** True when Linux-2.6-style IRQ rotation is enabled. */
    bool rotationEnabled = false;
};

/** Flow-Director bookkeeping the benches report. */
struct SteeringStats
{
    std::uint64_t flowMatches = 0;   ///< RX hits in the flow table
    std::uint64_t flowMisses = 0;    ///< RX fell back to the RSS hash
    std::uint64_t flowLearns = 0;    ///< new flow entries installed
    std::uint64_t flowMigrations = 0;///< re-learned onto another queue
    /** Learn attempts rejected because the flow table was full —
     *  silent before; exactly the condition under which the other
     *  counters would otherwise be biased. */
    std::uint64_t flowLearnDrops = 0;
};

/**
 * One system's steering policy. Stateless for StaticPaper/Rss;
 * FlowDirector mutates its flow table from the (single-threaded per
 * system) transmit path.
 */
class SteeringPolicy
{
  public:
    virtual ~SteeringPolicy() = default;

    /** @return token for labels/JSON ("static", "rss", ...). */
    virtual std::string_view name() const = 0;

    /** @return steering kind of this policy. */
    virtual SteeringKind kind() const = 0;

    /** RX queues per NIC this policy provisions. */
    int numQueues() const { return nQueues; }

    /** RX queue for a frame of @p pkt arriving at NIC @p nic. */
    virtual int rxQueue(int nic, const Packet &pkt) = 0;

    /** smp_affinity mask provisioned for (nic, queue)'s vector. */
    virtual std::uint32_t vectorAffinity(int nic, int queue) const = 0;

    /** Allowed-CPU mask for the process serving connection @p conn. */
    virtual std::uint32_t taskAffinity(int conn) const = 0;

    /**
     * Transmit-side hook, called per successfully posted frame:
     * Flow Director learns flow -> queue from the transmitting CPU.
     */
    virtual void
    noteTransmit(int nic, const Packet &pkt, sim::CpuId cpu)
    {
        (void)nic;
        (void)pkt;
        (void)cpu;
    }

    /** @return flow-table bookkeeping (zeros except FlowDirector). */
    virtual SteeringStats stats() const { return SteeringStats{}; }

  protected:
    SteeringPolicy(const SteeringConfig &config,
                   const SteeringTopology &topology)
        : cfg(config), topo(topology), nQueues(config.numQueues)
    {
    }

    /** @return mask with one bit per installed CPU. */
    std::uint32_t
    allCpusMask() const
    {
        return topo.numCpus >= 32 ? 0xffffffffu
                                  : (1u << topo.numCpus) - 1u;
    }

    /** CPU that services queue @p q: round-robin over the CPUs. */
    sim::CpuId
    queueCpu(int q) const
    {
        return static_cast<sim::CpuId>(q % topo.numCpus);
    }

    SteeringConfig cfg;
    SteeringTopology topo;
    int nQueues;
};

/**
 * Toeplitz hash (Microsoft RSS specification) over an arbitrary input,
 * MSB-first, under the default 40-byte secret key. Deterministic
 * across platforms; used by Rss and the FlowDirector fallback path.
 */
std::uint32_t toeplitzHash(const std::uint8_t *data, std::size_t len);

/** Toeplitz hash of a 32-bit id (big-endian serialization). */
std::uint32_t toeplitzHash(std::uint32_t flow_id);

/**
 * Toeplitz hash of a flow's canonical 12-byte serialization (see
 * flow.hh for the hashing contract shared with ConnectionMap).
 */
std::uint32_t toeplitzHash(const FlowKey &flow);

/**
 * Build the policy for @p config.
 * @param mode the paper affinity mode (consumed by StaticPaper)
 * @param topology machine shape; paperCpu must be callable
 */
std::unique_ptr<SteeringPolicy>
makeSteeringPolicy(const SteeringConfig &config, core::AffinityMode mode,
                   const SteeringTopology &topology);

} // namespace na::net

#endif // NETAFFINITY_NET_STEERING_HH
