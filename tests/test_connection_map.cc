/**
 * @file
 * Tests for the FlowKey-keyed connection layer: ConnectionMap chains
 * and pooling, listener fallback, the driver poll-key packing, and
 * end-to-end flow churn through listen/accept with socket recycling.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/system.hh"
#include "src/net/connection_map.hh"
#include "src/net/driver.hh"
#include "src/net/flow.hh"

using namespace na;

namespace {

/** Map with a deterministic fake line allocator (no kernel needed). */
struct MapRig
{
    explicit MapRig(std::size_t buckets)
        : root(nullptr, ""),
          map(&root, buckets, [this] { return nextLine += 64; })
    {
    }

    stats::Group root;
    sim::Addr nextLine = 0x1000;
    net::ConnectionMap map;
};

net::FlowKey
key(std::uint32_t n)
{
    net::FlowKey k;
    k.localAddr = 0x0a000001;
    k.remoteAddr = 0xc0a80000 + n;
    k.localPort = 5001;
    k.remotePort = static_cast<std::uint16_t>(1024 + (n % 60000));
    return k;
}

/** Mint @p n keys that all land in the same bucket. */
std::vector<net::FlowKey>
collidingKeys(const net::ConnectionMap &map, std::size_t n)
{
    std::vector<net::FlowKey> out;
    const std::size_t target = map.bucketOf(key(0));
    for (std::uint32_t i = 0; out.size() < n; ++i) {
        if (map.bucketOf(key(i)) == target)
            out.push_back(key(i));
    }
    return out;
}

TEST(ConnectionMap, InsertLookupEraseRoundTrip)
{
    MapRig rig(64);
    auto *fake_sock = reinterpret_cast<net::Socket *>(0x1);
    EXPECT_EQ(rig.map.lookup(key(7)), nullptr);
    net::ConnectionMap::Entry *e =
        rig.map.insert(key(7), fake_sock, nullptr);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->socket, fake_sock);
    EXPECT_NE(e->nodeLine, 0u);
    EXPECT_EQ(rig.map.lookup(key(7)), e);
    EXPECT_EQ(rig.map.size(), 1u);
    EXPECT_TRUE(rig.map.erase(key(7)));
    EXPECT_EQ(rig.map.lookup(key(7)), nullptr);
    EXPECT_EQ(rig.map.size(), 0u);
    EXPECT_FALSE(rig.map.erase(key(7)));
}

TEST(ConnectionMap, BucketCountRoundsUpToPowerOfTwo)
{
    MapRig rig(100);
    EXPECT_EQ(rig.map.bucketCount(), 128u);
}

// An adversarial chain: many keys forced into one bucket must all
// stay reachable, count collisions, and survive erasure from the
// middle of the chain.
TEST(ConnectionMap, AdversarialCollisionChainStaysConsistent)
{
    MapRig rig(16);
    const std::vector<net::FlowKey> keys = collidingKeys(rig.map, 8);
    std::vector<net::ConnectionMap::Entry *> entries;
    for (const net::FlowKey &k : keys)
        entries.push_back(rig.map.insert(k, nullptr, nullptr));

    EXPECT_EQ(rig.map.size(), keys.size());
    EXPECT_EQ(rig.map.maxChainLength(), keys.size());
    // 8 inserts into one bucket: all but the first hit an occupied slot.
    EXPECT_EQ(rig.map.collisions.value(),
              static_cast<double>(keys.size() - 1));
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(rig.map.lookup(keys[i]), entries[i]);

    // Remove every second entry (middle-of-chain unlinks included).
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(rig.map.erase(keys[i]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 2)
            EXPECT_EQ(rig.map.lookup(keys[i]), entries[i]);
        else
            EXPECT_EQ(rig.map.lookup(keys[i]), nullptr);
    }
    EXPECT_EQ(rig.map.maxChainLength(), keys.size() / 2);
}

// Churn storms must recycle entry nodes (and their simulated cache
// lines): the line set the map ever hands out is bounded by the peak
// live population, not by the total insert count.
TEST(ConnectionMap, ChurnReusesPooledEntriesAndLines)
{
    MapRig rig(32);
    std::set<sim::Addr> lines_seen;
    for (int round = 0; round < 100; ++round) {
        for (std::uint32_t i = 0; i < 16; ++i) {
            net::ConnectionMap::Entry *e =
                rig.map.insert(key(1000 + i), nullptr, nullptr);
            lines_seen.insert(e->nodeLine);
        }
        for (std::uint32_t i = 0; i < 16; ++i)
            EXPECT_TRUE(rig.map.erase(key(1000 + i)));
    }
    EXPECT_EQ(rig.map.size(), 0u);
    // 1600 inserts, but only the 16-line peak working set was minted.
    EXPECT_EQ(lines_seen.size(), 16u);
    EXPECT_EQ(rig.map.inserts.value(), 1600.0);
    EXPECT_EQ(rig.map.erases.value(), 1600.0);
}

TEST(ConnectionMap, ListenerFallbackPrefersExactOverWildcard)
{
    MapRig rig(16);
    auto *exact = reinterpret_cast<net::Socket *>(0x10);
    auto *wild = reinterpret_cast<net::Socket *>(0x20);
    rig.map.listen(0, 5001, wild, nullptr); // wildcard bind
    rig.map.listen(net::sutAddr(3), 5001, exact, nullptr);
    EXPECT_EQ(rig.map.listenerCount(), 2u);

    // Exact (addr, port) beats the wildcard...
    net::ConnectionMap::Entry *e =
        rig.map.lookupListener(net::sutAddr(3), 5001);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->socket, exact);
    // ...an unbound address falls back to the wildcard...
    e = rig.map.lookupListener(net::sutAddr(9), 5001);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->socket, wild);
    // ...and the wrong port matches nothing.
    EXPECT_EQ(rig.map.lookupListener(net::sutAddr(3), 80), nullptr);

    EXPECT_TRUE(rig.map.eraseListener(0, 5001));
    EXPECT_EQ(rig.map.lookupListener(net::sutAddr(9), 5001), nullptr);
    EXPECT_EQ(rig.map.listenerCount(), 1u);
}

// Regression: pollKey once packed the queue into 8 bits, so
// (nic 1, queue 0) aliased (nic 0, queue 256).
TEST(DriverPollKey, NicAndQueueCannotAlias)
{
    EXPECT_NE(net::Driver::pollKey(1, 0), net::Driver::pollKey(0, 256));
    EXPECT_NE(net::Driver::pollKey(1, 0),
              net::Driver::pollKey(0, 1 << 8));
    EXPECT_NE(net::Driver::pollKey(2, 3), net::Driver::pollKey(3, 2));
    EXPECT_EQ(net::Driver::pollKey(1, 2), net::Driver::pollKey(1, 2));
    // Full 32-bit queue ids survive.
    EXPECT_EQ(net::Driver::pollKey(0, 0x12345678) & 0xffffffffull,
              0x12345678ull);
}

core::SystemConfig
mixConfig(int conns = 1)
{
    core::SystemConfig cfg;
    cfg.platform.numCpus = 2;
    cfg.platform.seed = 12345;
    cfg.numConnections = conns;
    workload::FlowMixConfig mix;
    mix.maxConcurrentFlows = 8;
    mix.flowSizeMin = 1024;
    mix.flowSizeMax = 64 * 1024;
    mix.meanInterarrivalTicks = 150'000;
    cfg.workload = mix;
    return cfg;
}

// End-to-end churn: flows arrive, get accepted, complete, and every
// connection-table entry and pooled socket is returned once the
// client stops and the population drains.
TEST(FlowChurn, AcceptServeCloseLeavesNothingLive)
{
    core::System sys(mixConfig());
    ASSERT_TRUE(sys.establishAll(1'000'000));
    sys.runFor(40'000'000); // 20 ms of churn

    net::FlowClientPeer &client = sys.flowPeer(0);
    EXPECT_GT(client.flowsLaunched(), 0u);
    EXPECT_GT(sys.driver().synsAccepted.value(), 0.0);
    EXPECT_GT(sys.mixApp(0).flowsRetired(), 0u);

    client.stopArrivals();
    sys.runFor(400'000'000); // generous drain
    EXPECT_EQ(client.liveFlows(), 0u);
    EXPECT_EQ(sys.driver().connectionTable().size(), 0u);
    EXPECT_EQ(sys.socketPool().inUse(), 0u);
    EXPECT_EQ(client.flowsCompletedCount(), client.flowsLaunched());
    // Server-side byte accounting matches what completed flows sent.
    EXPECT_EQ(sys.mixApp(0).bytesReceived(), client.completedBytesSent());
}

// Accept-order determinism: identical configs produce bit-identical
// churn outcomes, run after run.
TEST(FlowChurn, ChurnIsDeterministicAcrossRuns)
{
    auto run = [] {
        core::System sys(mixConfig(2));
        sys.establishAll(1'000'000);
        sys.runFor(30'000'000);
        std::vector<double> sig;
        for (int i = 0; i < 2; ++i) {
            sig.push_back(sys.flowPeer(i).flowsStarted.value());
            sig.push_back(sys.flowPeer(i).flowsCompleted.value());
            sig.push_back(static_cast<double>(
                sys.mixApp(i).bytesReceived()));
            sig.push_back(static_cast<double>(
                sys.mixApp(i).flowsAccepted()));
        }
        sig.push_back(sys.driver().synsAccepted.value());
        sig.push_back(sys.driver().framesDelivered.value());
        sig.push_back(static_cast<double>(sys.eventQueue().now()));
        return sig;
    };
    EXPECT_EQ(run(), run());
}

// The concurrency cap defers arrivals instead of dropping them, and a
// deferred arrival is admitted as soon as a slot frees.
TEST(FlowChurn, ArrivalsBeyondCapAreDeferredNotLost)
{
    core::SystemConfig cfg = mixConfig();
    cfg.mix().maxConcurrentFlows = 2;
    cfg.mix().stormSize = 6; // every arrival bursts past the cap
    core::System sys(cfg);
    ASSERT_TRUE(sys.establishAll(1'000'000));
    sys.runFor(40'000'000);
    net::FlowClientPeer &client = sys.flowPeer(0);
    EXPECT_GT(client.deferredArrivals.value(), 0.0);
    client.stopArrivals();
    sys.runFor(400'000'000);
    EXPECT_EQ(client.liveFlows(), 0u);
    EXPECT_EQ(client.flowsCompletedCount(), client.flowsLaunched());
}

} // namespace
