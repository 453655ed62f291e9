#include "src/net/steering.hh"

#include <unordered_map>

#include "src/sim/logging.hh"

namespace na::net {

namespace {

/**
 * The 40-byte secret key from the Microsoft RSS specification (the one
 * every real NIC ships with by default).
 */
constexpr std::uint8_t toeplitzKey[40] = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

/** The paper's static setup expressed as a steering policy. */
class StaticPaperPolicy final : public SteeringPolicy
{
  public:
    StaticPaperPolicy(const SteeringConfig &config,
                      const SteeringTopology &topology,
                      core::AffinityMode affinity_mode)
        : SteeringPolicy(config, topology), mode(affinity_mode)
    {
    }

    std::string_view name() const override { return "static"; }

    SteeringKind kind() const override
    {
        return SteeringKind::StaticPaper;
    }

    int
    rxQueue(int nic, const Packet &pkt) override
    {
        (void)nic;
        (void)pkt;
        return 0;
    }

    std::uint32_t
    vectorAffinity(int nic, int queue) const override
    {
        (void)queue;
        // With rotating delivery enabled the 2.6-style balancer ignores
        // static masks and walks every installed CPU; provisioning the
        // full mask reproduces that exactly now that routeOf() rotates
        // within the mask.
        if (topo.rotationEnabled)
            return allCpusMask();
        if (core::pinsIrqs(mode))
            return 1u << topo.paperCpu(nic);
        return 0x1; // Linux 2.4 default: everything to CPU0
    }

    std::uint32_t
    taskAffinity(int conn) const override
    {
        return core::pinsProcs(mode) ? (1u << topo.paperCpu(conn))
                                     : 0xffffffffu;
    }

  private:
    core::AffinityMode mode;
};

/** Hash + indirection table; vectors spread across CPUs. */
class RssPolicy : public SteeringPolicy
{
  public:
    RssPolicy(const SteeringConfig &config,
              const SteeringTopology &topology)
        : SteeringPolicy(config, topology)
    {
        // Standard equal-weight spray: entry e serves queue e % n.
        for (std::size_t e = 0; e < indirection.size(); ++e)
            indirection[e] = static_cast<int>(e) % nQueues;
    }

    std::string_view name() const override { return "rss"; }

    SteeringKind kind() const override { return SteeringKind::Rss; }

    int
    rxQueue(int nic, const Packet &pkt) override
    {
        (void)nic;
        return hashQueue(pkt.flow);
    }

    std::uint32_t
    vectorAffinity(int nic, int queue) const override
    {
        (void)nic;
        return 1u << queueCpu(queue);
    }

    std::uint32_t
    taskAffinity(int conn) const override
    {
        // RSS steers interrupts only; processes run where the
        // scheduler puts them.
        (void)conn;
        return 0xffffffffu;
    }

  protected:
    int
    hashQueue(const FlowKey &flow) const
    {
        const std::uint32_t h = toeplitzHash(flow);
        return indirection[h & (indirection.size() - 1)];
    }

  private:
    std::array<int, SteeringConfig::rssTableSize> indirection{};
};

/**
 * Exact-match flow table learned from the transmit path (Intel
 * Application Targeted Routing). Unknown flows fall back to RSS.
 */
class FlowDirectorPolicy final : public RssPolicy
{
  public:
    FlowDirectorPolicy(const SteeringConfig &config,
                       const SteeringTopology &topology)
        : RssPolicy(config, topology)
    {
    }

    std::string_view name() const override { return "flow_director"; }

    SteeringKind
    kind() const override
    {
        return SteeringKind::FlowDirector;
    }

    int
    rxQueue(int nic, const Packet &pkt) override
    {
        const auto it = flows.find(FdKey{nic, pkt.flow});
        if (it != flows.end()) {
            ++counters.flowMatches;
            return it->second;
        }
        ++counters.flowMisses;
        return hashQueue(pkt.flow);
    }

    void
    noteTransmit(int nic, const Packet &pkt, sim::CpuId cpu) override
    {
        const int q = queueServing(cpu);
        const FdKey key{nic, pkt.flow};
        auto it = flows.find(key);
        if (it == flows.end()) {
            if (static_cast<int>(flows.size()) >= cfg.flowTableSize) {
                // Table full: the flow stays on the hash path. Count
                // it — a silent drop biases the learn/migration stats
                // exactly when the table is stressed.
                ++counters.flowLearnDrops;
                return;
            }
            flows.emplace(key, q);
            ++counters.flowLearns;
        } else if (it->second != q) {
            // The sender moved cores: the flow's RX queue moves with
            // it. This re-steer is where Flow Director's reordering
            // window opens.
            it->second = q;
            ++counters.flowMigrations;
        }
    }

    SteeringStats stats() const override { return counters; }

  private:
    /** Exact-match table key: the 4-tuple scoped to its NIC. */
    struct FdKey
    {
        int nic;
        FlowKey flow;

        bool
        operator==(const FdKey &o) const
        {
            return nic == o.nic && flow == o.flow;
        }
    };

    struct FdKeyHash
    {
        std::size_t
        operator()(const FdKey &k) const
        {
            return (static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(k.nic))
                    << 32) ^
                   flowHash32(k.flow);
        }
    };

    /** Queue whose vector targets @p cpu (first match, else modulo). */
    int
    queueServing(sim::CpuId cpu) const
    {
        for (int q = 0; q < nQueues; ++q) {
            if (queueCpu(q) == cpu)
                return q;
        }
        return static_cast<int>(cpu) % nQueues;
    }

    std::unordered_map<FdKey, int, FdKeyHash> flows;
    SteeringStats counters;
};

} // namespace

std::uint32_t
toeplitzHash(const std::uint8_t *data, std::size_t len)
{
    // Left-aligned 32-bit window over the key, shifted one bit per
    // input bit; XOR the window for every set input bit (verbatim from
    // the RSS spec). The 40-byte key admits inputs up to 36 bytes.
    std::uint32_t result = 0;
    std::uint32_t window = (static_cast<std::uint32_t>(toeplitzKey[0])
                            << 24) |
                           (static_cast<std::uint32_t>(toeplitzKey[1])
                            << 16) |
                           (static_cast<std::uint32_t>(toeplitzKey[2])
                            << 8) |
                           static_cast<std::uint32_t>(toeplitzKey[3]);
    const std::size_t bits = len * 8;
    for (std::size_t bit = 0; bit < bits; ++bit) {
        if (data[bit / 8] & (0x80u >> (bit % 8)))
            result ^= window;
        const std::size_t next = 4 + (bit + 1) / 8;
        const std::size_t shift = 7 - (bit + 1) % 8;
        window = (window << 1) |
                 ((static_cast<std::uint32_t>(toeplitzKey[next]) >>
                   shift) &
                  1u);
    }
    return result;
}

std::uint32_t
toeplitzHash(std::uint32_t flow_id)
{
    const std::uint8_t be[4] = {
        static_cast<std::uint8_t>(flow_id >> 24),
        static_cast<std::uint8_t>(flow_id >> 16),
        static_cast<std::uint8_t>(flow_id >> 8),
        static_cast<std::uint8_t>(flow_id),
    };
    return toeplitzHash(be, sizeof(be));
}

std::uint32_t
toeplitzHash(const FlowKey &flow)
{
    const std::array<std::uint8_t, 12> b = flow.bytes();
    return toeplitzHash(b.data(), b.size());
}

std::unique_ptr<SteeringPolicy>
makeSteeringPolicy(const SteeringConfig &config, core::AffinityMode mode,
                   const SteeringTopology &topology)
{
    if (!topology.paperCpu)
        sim::fatal("makeSteeringPolicy: topology.paperCpu not set");
    switch (config.kind) {
      case SteeringKind::StaticPaper:
        return std::make_unique<StaticPaperPolicy>(config, topology,
                                                   mode);
      case SteeringKind::Rss:
        return std::make_unique<RssPolicy>(config, topology);
      case SteeringKind::FlowDirector:
        return std::make_unique<FlowDirectorPolicy>(config, topology);
    }
    sim::fatal("makeSteeringPolicy: unknown SteeringKind %d",
               static_cast<int>(config.kind));
    return nullptr;
}

} // namespace na::net
