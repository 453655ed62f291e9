/**
 * @file
 * The flow-churn client box: a protocol-faithful, CPU-cost-free peer
 * that opens, drives, and closes many concurrent TCP flows against a
 * SUT listener.
 *
 * Where RemotePeer models one long-lived ttcp endpoint, FlowClientPeer
 * models the *population* the steering literature cares about: flows
 * arrive in a seeded Poisson process (optionally in connect storms),
 * carry heavy-tailed (bounded-Pareto) byte counts, and actively close
 * when done — exercising the SUT's
 * listen/accept path, connection-table churn, and socket recycling.
 *
 * Every flow is its own PeerConn — a TcpConnection with per-flow
 * RTO/delayed-ACK events (no per-packet scans over the population) —
 * so 10k concurrent flows cost O(1) per packet on the client side.
 */

#ifndef NETAFFINITY_NET_FLOW_CLIENT_HH
#define NETAFFINITY_NET_FLOW_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/flow.hh"
#include "src/net/peer.hh"
#include "src/net/tcp_connection.hh"
#include "src/net/wire.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "src/stats/stats.hh"

namespace na::net {

/**
 * Many-flow churn workload parameters, per connection (NIC). One copy
 * drives both ends of the churn plane: the FlowClientPeer generating
 * the flows reads it, and core::System provisions the SUT's listener
 * and workload::FlowMixApp from it.
 */
struct FlowMixConfig
{
    /** Client-side concurrency cap; arrivals beyond it defer. */
    int maxConcurrentFlows = 64;
    /** Total flows to generate per NIC (0 = unbounded). */
    std::uint64_t totalFlows = 0;

    /** Bounded-Pareto flow sizes (client payload per flow). */
    std::uint32_t flowSizeMin = 2048;
    std::uint32_t flowSizeMax = 1 << 20;
    double flowSizeShape = 1.2; ///< tail index alpha

    /** Mean exponential flow interarrival, in ticks. */
    double meanInterarrivalTicks = 200'000;
    /** Flows per arrival event (> 1 models connect storms). */
    int stormSize = 1;

    /** Server-side listen/accept plane. */
    static constexpr std::uint16_t listenPort = 5001;
    int listenBacklog = 128;
    /** Bytes per server read() call. */
    static constexpr std::uint32_t readChunk = 16 * 1024;

    /**
     * Scheduler-induced migration driver: every senderHopTicks the
     * system re-pins each server task to the next CPU (round-robin),
     * forcing its transmissions onto a new core mid-flow. Under Flow
     * Director every hop re-steers the live flows' RX queue — the
     * controlled reordering source bench/ext_reorder sweeps. 0 (the
     * default) disables hopping; nothing else in the run changes, so
     * default-config results stay bit-identical.
     */
    std::uint64_t senderHopTicks = 0;
};

/** Per-flow-size-bucket completion log (log2 buckets). */
struct FlowSizeBucket
{
    std::uint64_t maxBytes = 0; ///< inclusive upper bound
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0; ///< client payload bytes sent
};

/** One client box driving a churning flow population. */
class FlowClientPeer : public stats::Group
{
  public:
    /**
     * @param conn the connection (NIC) index: flows run from
     *             peerAddr(conn) to the listener at sutAddr(conn)
     */
    FlowClientPeer(stats::Group *parent, const std::string &name,
                   sim::EventQueue &eq, Wire &wire, int conn,
                   const FlowMixConfig &config, const TcpConfig &tcp,
                   std::uint64_t seed);
    ~FlowClientPeer();

    /** Attach to the wire and schedule the first arrival. */
    void start();

    /** Stop generating new flows; in-flight flows drain normally. */
    void stopArrivals();

    std::uint64_t flowsLaunched() const { return launched; }
    std::uint64_t
    flowsCompletedCount() const
    {
        return static_cast<std::uint64_t>(flowsCompleted.value());
    }
    std::size_t liveFlows() const { return flows.size(); }

    /** Client payload bytes sent over flows that fully completed. */
    std::uint64_t completedBytesSent() const { return doneBytesSent; }

    /** @return completion log since the last resetFlowLog(). */
    const std::vector<FlowSizeBucket> &sizeBuckets() const
    {
        return buckets;
    }

    /** Clear the measurement-window completion log. */
    void resetFlowLog();

    stats::Scalar flowsStarted;
    stats::Scalar flowsCompleted;
    stats::Scalar csumDrops;
    stats::Scalar latePackets; ///< packets for already-reaped flows
    stats::Scalar deferredArrivals; ///< arrivals held by the cap
    /** @name Sender-side recovery costs, harvested per completed flow.
     *  The client is the bulk data sender, so SUT-side reordering
     *  (migration-induced OOO arrival) surfaces here as dup-ACK bursts
     *  answered with retransmissions — spurious ones, when the Eifel
     *  classifier proves the original arrived after all. @{ */
    stats::Scalar retransmits;
    stats::Scalar spuriousRetransmits;
    stats::Scalar dupAckBursts;
    /** @} */

  private:
    /**
     * One live client-side flow. Recycled through flowPool: the
     * endpoint's events (and their captures) survive reuse; reset()
     * re-arms the protocol state for the next flow.
     */
    struct CFlow : PeerConn
    {
        std::uint64_t targetBytes = 0; ///< bytes to send
        std::uint64_t sent = 0;        ///< bytes appended so far

        explicit CFlow(FlowClientPeer &owner);

        /** Re-arm a pooled flow for @p k (events must be idle). */
        void reset(FlowClientPeer &owner, const FlowKey &k);
    };

    sim::EventQueue &eq;
    Wire &wire;
    FlowMixConfig cfg;
    TcpConfig tcp;
    std::uint32_t serverAddr; ///< SUT side of every minted key
    std::uint32_t clientAddr; ///< this box's side
    sim::Random rng;
    bool arrivalsEnabled = false;
    std::uint64_t launched = 0;  ///< flows actually started
    std::uint64_t requested = 0; ///< arrival slots drawn (incl. deferred)
    std::uint64_t deferred = 0;  ///< arrivals waiting for a free slot
    std::uint16_t nextPort = 1024;
    std::uint64_t doneBytesSent = 0;

    std::unordered_map<FlowKey, std::unique_ptr<CFlow>, FlowKeyHash>
        flows;
    /** Reaped CFlows awaiting reuse; grows to peak concurrency only. */
    std::vector<std::unique_ptr<CFlow>> flowPool;
    /** Reply/pull scratch reused across packets (capacity persists). */
    std::vector<Segment> scratch;
    std::vector<FlowSizeBucket> buckets; ///< log2-indexed
    std::vector<FlowKey> pendingReap;
    sim::LambdaEvent arrivalEvent;
    sim::LambdaEvent reapEvent;

    void onPacket(const Packet &pkt);
    void onArrival();
    void scheduleNextArrival();
    /** Start up to @p n flows now; the rest wait for free slots. */
    void tryStart(int n);
    void startFlow();
    std::uint32_t drawFlowSize();
    FlowKey mintKey();
    void pumpFlow(CFlow &f);
    bool completed(const CFlow &f) const;
    /**
     * Queue @p f for reaping on a same-tick event. Reaping destroys
     * the flow's member events, so it must never run inside one of
     * their own callbacks.
     */
    void scheduleReap(const CFlow &f);
    void reapCompleted();
    void recordCompletion(const CFlow &f);
    /** Timer callback body shared by both per-flow events. */
    void flowTimerFired(CFlow &f);
};

} // namespace na::net

#endif // NETAFFINITY_NET_FLOW_CLIENT_HH
