/**
 * @file
 * Canonical point keys: determinism, sensitivity to every covered
 * axis, hex round trip, and the collision-checked registry.
 */

#include <gtest/gtest.h>

#include "src/core/point_key.hh"
#include "src/core/sweep.hh"

using namespace na;

namespace {

core::SystemConfig
baseConfig()
{
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    return cfg;
}

core::RunSchedule
baseSchedule()
{
    core::RunSchedule s;
    s.warmup = 2'000'000;
    s.measure = 10'000'000;
    return s;
}

TEST(PointKey, DeterministicAcrossCalls)
{
    const core::SystemConfig cfg = baseConfig();
    const core::RunSchedule sched = baseSchedule();
    EXPECT_EQ(core::canonicalPointText(cfg, sched),
              core::canonicalPointText(cfg, sched));
    EXPECT_EQ(core::pointKeyOf(cfg, sched),
              core::pointKeyOf(cfg, sched));
    EXPECT_NE(core::pointKeyOf(cfg, sched), 0u);
}

// Every field of an enabled plan is keyed, not just its label. Adding a
// field to sim::FaultPlan or sim::FaultDirection changes these sizes.
static_assert(sizeof(sim::FaultDirection) == 64,
              "FaultDirection changed: add the field to the key and this "
              "test (SensitiveToEveryCoveredAxis)");
static_assert(sizeof(sim::FaultPlan) == 200,
              "FaultPlan changed: add the field to the key and this test "
              "(SensitiveToEveryCoveredAxis)");

TEST(PointKey, SensitiveToEveryCoveredAxis)
{
    const core::SystemConfig cfg = baseConfig();
    const core::RunSchedule sched = baseSchedule();
    const std::uint64_t base_key = core::pointKeyOf(cfg, sched);

    {
        core::SystemConfig c = cfg;
        c.platform.seed += 1;
        EXPECT_NE(core::pointKeyOf(c, sched), base_key) << "seed";
    }
    {
        core::SystemConfig c = cfg;
        c.ttcp().msgSize = 8192;
        EXPECT_NE(core::pointKeyOf(c, sched), base_key) << "msg size";
    }
    {
        core::SystemConfig c = cfg;
        c.ttcp().mode = workload::TtcpMode::Receive;
        EXPECT_NE(core::pointKeyOf(c, sched), base_key) << "mode";
    }
    {
        core::SystemConfig c = cfg;
        c.affinity = core::AffinityMode::Full;
        EXPECT_NE(core::pointKeyOf(c, sched), base_key) << "affinity";
    }
    {
        core::SystemConfig c = cfg;
        c.numConnections = 4;
        EXPECT_NE(core::pointKeyOf(c, sched), base_key)
            << "connections";
    }
    {
        // Every field of an enabled, tagged plan is keyed, not just its
        // label: two plans with one tag must not share a key.
        core::SystemConfig faulty = cfg;
        faulty.faults.tag = "lossy";
        faulty.faults.toPeer.lossProb = 0.01;
        const std::uint64_t faulty_key = core::pointKeyOf(faulty, sched);
        EXPECT_NE(faulty_key, base_key) << "faults";

        using Dir = sim::FaultDirection;
        const struct
        {
            const char *field;
            void (*perturb)(Dir &);
        } dir_cases[] = {
            {"lossProb", [](Dir &d) { d.lossProb += 0.25; }},
            {"geGoodToBad", [](Dir &d) { d.geGoodToBad += 0.25; }},
            {"geBadToGood", [](Dir &d) { d.geBadToGood += 0.25; }},
            {"geBadLoss", [](Dir &d) { d.geBadLoss -= 0.25; }},
            {"corruptProb", [](Dir &d) { d.corruptProb += 0.25; }},
            {"dupProb", [](Dir &d) { d.dupProb += 0.25; }},
            {"reorderProb", [](Dir &d) { d.reorderProb += 0.25; }},
            {"reorderDelayTicks",
             [](Dir &d) { d.reorderDelayTicks += 1; }},
        };
        for (const auto &dc : dir_cases) {
            core::SystemConfig to_peer = faulty;
            dc.perturb(to_peer.faults.toPeer);
            EXPECT_NE(core::pointKeyOf(to_peer, sched), faulty_key)
                << "faults.toPeer." << dc.field;
            core::SystemConfig to_sut = faulty;
            dc.perturb(to_sut.faults.toSut);
            EXPECT_NE(core::pointKeyOf(to_sut, sched), faulty_key)
                << "faults.toSut." << dc.field;
            EXPECT_NE(core::pointKeyOf(to_peer, sched),
                      core::pointKeyOf(to_sut, sched))
                << "direction of faults." << dc.field;
        }

        using Plan = sim::FaultPlan;
        const struct
        {
            const char *field;
            void (*perturb)(Plan &);
        } plan_cases[] = {
            {"linkFlapPeriodTicks",
             [](Plan &p) { p.linkFlapPeriodTicks = 9; }},
            {"linkFlapDownTicks", [](Plan &p) { p.linkFlapDownTicks = 3; }},
            {"rxStallPeriodTicks",
             [](Plan &p) { p.rxStallPeriodTicks = 9; }},
            {"rxStallTicks", [](Plan &p) { p.rxStallTicks = 3; }},
            {"irqLossProb", [](Plan &p) { p.irqLossProb = 0.5; }},
            {"tag", [](Plan &p) { p.tag = "other"; }},
        };
        for (const auto &pc : plan_cases) {
            core::SystemConfig c = faulty;
            pc.perturb(c.faults);
            EXPECT_NE(core::pointKeyOf(c, sched), faulty_key)
                << "faults." << pc.field;
        }
    }
    {
        core::RunSchedule s = sched;
        s.measure *= 2;
        EXPECT_NE(core::pointKeyOf(cfg, s), base_key)
            << "schedule measure";
    }
}

/**
 * The canonical text is a storage format: committed JSONL stores resume
 * by these keys and perfbench's references pin them, so the text must
 * not move. `|lanes=1` names a removed multi-queue mode; it stays so
 * keys written while that mode existed still match.
 */
TEST(PointKey, CanonicalTextIsPinned)
{
    const core::RunSchedule sched = baseSchedule();
    const core::SystemConfig ttcp = baseConfig();
    EXPECT_EQ(core::canonicalPointText(ttcp, sched),
              "TX 65536B No Aff x2, 2 cpus, steering=static q=1, rot=0"
              "|seed=42|freq=2e+09|wire=1e+09,10000,0|lanes=1|iv=0"
              "|sched=4000000000,2000000,10000000,0,0.01");
    EXPECT_EQ(core::formatPointKey(core::pointKeyOf(ttcp, sched)),
              "0e2b53ab2ca1c8f4");

    core::SystemConfig mix = baseConfig();
    workload::FlowMixConfig m;
    m.maxConcurrentFlows = 32;
    m.totalFlows = 200;
    m.flowSizeMin = 512;
    m.flowSizeMax = 32 * 1024;
    m.meanInterarrivalTicks = 30'000;
    m.listenBacklog = 256;
    mix.workload = m;
    mix.steering.kind = net::SteeringKind::FlowDirector;
    mix.steering.numQueues = 2;
    EXPECT_EQ(core::canonicalPointText(mix, sched),
              "MIX No Aff x2, 2 cpus, steering=flow_director q=2, rot=0 "
              "wl:mix(z=1.2,n=32)|seed=42|freq=2e+09"
              "|wire=1e+09,10000,0|lanes=1|iv=0"
              "|sched=4000000000,2000000,10000000,0,0.01");
    EXPECT_EQ(core::formatPointKey(core::pointKeyOf(mix, sched)),
              "a8fc502f659b6edb");
}

TEST(PointKey, HexFormatRoundTrips)
{
    for (std::uint64_t key :
         {std::uint64_t{1}, std::uint64_t{0xdeadbeefcafebabeULL},
          std::uint64_t{0xffffffffffffffffULL},
          core::pointKeyOf(baseConfig(), baseSchedule())}) {
        const std::string hex = core::formatPointKey(key);
        EXPECT_EQ(hex.size(), 16u);
        EXPECT_EQ(core::parsePointKey(hex), key);
    }
}

TEST(PointKey, ParseRejectsMalformedHex)
{
    for (const char *bad :
         {"", "1234", "123456789abcdef", "123456789abcdef01",
          "123456789abcdefg", "0x1234567890abcde"}) {
        EXPECT_THROW((void)core::parsePointKey(bad),
                     std::runtime_error)
            << "'" << bad << "'";
    }
}

TEST(PointKey, HashNeverReturnsZero)
{
    // The JSONL reader rejects a zero point_key as corrupt, so the
    // hash remaps 0 rather than ever emitting it.
    EXPECT_NE(core::hashCanonicalText(""), 0u);
    EXPECT_NE(core::hashCanonicalText("x"), 0u);
}

TEST(PointKeyRegistry, IdenticalTextRegistersTwiceWithoutThrowing)
{
    core::PointKeyRegistry reg;
    reg.add(7, "same text");
    EXPECT_NO_THROW(reg.add(7, "same text"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(PointKeyRegistry, ThrowsOnRealHashCollision)
{
    core::PointKeyRegistry reg;
    reg.add(7, "text A");
    EXPECT_THROW(reg.add(7, "text B"), std::runtime_error);
}

TEST(PointKey, SweepPointsGetDistinctKeys)
{
    core::SystemConfig base = baseConfig();
    const std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(baseSchedule())
            .sizes({1024u, 4096u})
            .affinities({core::AffinityMode::None,
                         core::AffinityMode::Full})
            .build();

    std::vector<std::uint64_t> keys;
    for (const core::CampaignPoint &p : points)
        keys.push_back(core::pointKeyOf(p.config, p.schedule));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
}

} // namespace
