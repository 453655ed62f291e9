/**
 * @file
 * Campaign engine: parallel determinism, submission-order collection,
 * sweep construction, the results round trip through the JSONL
 * reader, and the bytes of the write-only campaign document.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <clocale>
#include <sstream>

#include "src/core/campaign.hh"
#include "src/core/json.hh"
#include "src/core/point_key.hh"
#include "src/core/results_json.hh"
#include "src/core/sweep.hh"
#include "src/sim/logging.hh"
#include "tests/jsonl_roundtrip.hh"

using namespace na;

namespace {

core::RunSchedule
tinySchedule()
{
    core::RunSchedule s;
    s.warmup = 2'000'000;   // 1 ms
    s.measure = 10'000'000; // 5 ms
    return s;
}

std::vector<core::CampaignPoint>
tinyPoints()
{
    core::SystemConfig base;
    base.numConnections = 2;
    return core::SweepBuilder()
        .base(base)
        .schedule(tinySchedule())
        .modes({workload::TtcpMode::Transmit,
                workload::TtcpMode::Receive})
        .sizes({1024u, 8192u})
        .affinity(core::AffinityMode::Full)
        .build();
}

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.payloadBytes, b.payloadBytes);
    EXPECT_EQ(a.throughputMbps, b.throughputMbps);
    EXPECT_EQ(a.cpuUtil, b.cpuUtil);
    EXPECT_EQ(a.ghzPerGbps, b.ghzPerGbps);
    EXPECT_EQ(a.irqs, b.irqs);
    EXPECT_EQ(a.ipis, b.ipis);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    for (std::size_t e = 0; e < prof::numEvents; ++e)
        EXPECT_EQ(a.eventTotals[e], b.eventTotals[e]);
    for (std::size_t c = 0; c < a.utilPerCpu.size(); ++c)
        EXPECT_EQ(a.utilPerCpu[c], b.utilPerCpu[c]);
}

TEST(Campaign, PointSeedIsDeterministicAndDistinct)
{
    const std::uint64_t a0 = core::Campaign::pointSeed(42, 0);
    const std::uint64_t a1 = core::Campaign::pointSeed(42, 1);
    const std::uint64_t b0 = core::Campaign::pointSeed(43, 0);
    EXPECT_EQ(a0, core::Campaign::pointSeed(42, 0));
    EXPECT_NE(a0, a1);
    EXPECT_NE(a0, b0);
    EXPECT_NE(a0, 0u);
}

TEST(Campaign, SeedsDeriveFromCampaignSeedAndIndex)
{
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.seed = 7;
    const core::ResultSet rs = core::Campaign::run(tinyPoints(), opts);
    ASSERT_EQ(rs.size(), 4u);
    EXPECT_EQ(rs.campaignSeed, 7u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs.point(i).config.platform.seed,
                  core::Campaign::pointSeed(7, i));
    }
}

TEST(Campaign, ResultsIdenticalAcross1And2And8Threads)
{
    const std::vector<core::CampaignPoint> points = tinyPoints();

    core::Campaign::Options o1;
    o1.numThreads = 1;
    core::Campaign::Options o2;
    o2.numThreads = 2;
    core::Campaign::Options o8;
    o8.numThreads = 8;

    const core::ResultSet r1 = core::Campaign::run(points, o1);
    const core::ResultSet r2 = core::Campaign::run(points, o2);
    const core::ResultSet r8 = core::Campaign::run(points, o8);

    ASSERT_EQ(r1.size(), points.size());
    ASSERT_EQ(r2.size(), points.size());
    ASSERT_EQ(r8.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_GT(r1.result(i).payloadBytes, 0u) << "point " << i;
        expectIdentical(r1.result(i), r2.result(i));
        expectIdentical(r1.result(i), r8.result(i));
    }
}

TEST(Campaign, ResultsKeepSubmissionOrder)
{
    const std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 4;
    const core::ResultSet rs = core::Campaign::run(points, opts);

    ASSERT_EQ(rs.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(rs.point(i).config.ttcp().msgSize,
                  points[i].config.ttcp().msgSize);
        EXPECT_EQ(rs.point(i).config.ttcp().mode,
                  points[i].config.ttcp().mode);
        EXPECT_EQ(rs.point(i).label, points[i].label);
        // Lookup keyed on (mode, size, affinity) resolves to the same
        // slot as positional access.
        EXPECT_EQ(&rs.at(points[i].config.ttcp().mode,
                         points[i].config.ttcp().msgSize,
                         points[i].config.affinity),
                  &rs.result(i));
    }
}

TEST(Campaign, SystemHookRunsOncePerPointWithItsIndex)
{
    const std::vector<core::CampaignPoint> points = tinyPoints();
    std::vector<std::atomic<int>> calls(points.size());

    core::Campaign::Options opts;
    opts.numThreads = 2;
    opts.systemHook = [&calls](core::System &system,
                               const core::CampaignPoint &point,
                               std::size_t index) {
        EXPECT_EQ(system.config().ttcp().msgSize,
                  point.config.ttcp().msgSize);
        calls.at(index).fetch_add(1);
    };
    core::Campaign::run(points, opts);
    for (std::size_t i = 0; i < calls.size(); ++i)
        EXPECT_EQ(calls[i].load(), 1) << "point " << i;
}

TEST(Campaign, InvalidPointIsRejectedBeforeAnyRun)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    points[1].config.faults.toSut.lossProb = 2.0;
    core::Campaign::Options opts;
    opts.numThreads = 2;
    EXPECT_THROW(core::Campaign::run(points, opts), std::runtime_error);
}

TEST(Campaign, DistinctPointsWithEqualKeysBothRun)
{
    // ext_ablation's wake-affine pair differs only in a field the point
    // key does not cover, so with derivePointSeeds off both points share
    // a key. Each must still run: aliasing the second to the first
    // would report wake-affine-on IPIs for the off point.
    std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .schedule([] {
                // tinySchedule's 5 ms window sees too few wakeups to
                // tell the two apart; 10 ms sees 8 IPIs against 12.
                core::RunSchedule s = tinySchedule();
                s.measure = 20'000'000;
                return s;
            }())
            .mode(workload::TtcpMode::Transmit)
            .size(65536)
            .affinity(core::AffinityMode::Irq)
            .variant("wake-affine on",
                     [](core::SystemConfig &cfg) {
                         cfg.platform.wakeAffine = true;
                     })
            .variant("wake-affine off",
                     [](core::SystemConfig &cfg) {
                         cfg.platform.wakeAffine = false;
                     })
            .build();
    ASSERT_EQ(points.size(), 2u);
    core::Campaign::Options opts;
    opts.derivePointSeeds = false;
    opts.numThreads = 1;
    const std::vector<std::uint64_t> keys =
        core::Campaign::pointKeys(points);
    ASSERT_EQ(keys[0], keys[1]);

    const core::ResultSet rs = core::Campaign::run(points, opts);
    EXPECT_NE(rs.result(0).ipis, rs.result(1).ipis);
}

TEST(Campaign, BadPlatformGeometryIsRejectedNamingPointAndField)
{
    // A platform the model cannot build must not exit or abort the
    // whole process from inside a worker: the campaign throws, before
    // any point runs, naming the point and the field.
    struct Case
    {
        void (*breakIt)(cpu::PlatformConfig &);
        const char *field;
    };
    const Case cases[] = {
        {[](cpu::PlatformConfig &p) { p.numCpus = 0; }, "numCpus"},
        {[](cpu::PlatformConfig &p) { p.numCpus = 9; }, "numCpus"},
        {[](cpu::PlatformConfig &p) { p.orderingClearProb = -0.5; },
         "orderingClearProb"},
        {[](cpu::PlatformConfig &p) { p.orderingClearProb = 1.5; },
         "orderingClearProb"},
    };
    for (const Case &c : cases) {
        std::vector<core::CampaignPoint> points = tinyPoints();
        c.breakIt(points[2].config.platform);
        core::Campaign::Options opts;
        opts.numThreads = 2;
        try {
            core::Campaign::run(points, opts);
            ADD_FAILURE() << "expected a rejection naming " << c.field;
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("campaign point 2"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find(c.field), std::string::npos) << msg;
        }
    }
}

TEST(SweepBuilder, CrossesAxesInDeterministicOrder)
{
    const std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .modes({workload::TtcpMode::Transmit,
                    workload::TtcpMode::Receive})
            .sizes({128u, 65536u})
            .affinities(core::allAffinityModes)
            .build();
    ASSERT_EQ(points.size(), 2u * 2u * 4u);
    // Mode outermost, affinity innermost.
    EXPECT_EQ(points[0].config.ttcp().mode, workload::TtcpMode::Transmit);
    EXPECT_EQ(points[0].config.ttcp().msgSize, 128u);
    EXPECT_EQ(points[0].config.affinity, core::AffinityMode::None);
    EXPECT_EQ(points[1].config.affinity, core::AffinityMode::Irq);
    EXPECT_EQ(points[4].config.ttcp().msgSize, 65536u);
    EXPECT_EQ(points[8].config.ttcp().mode, workload::TtcpMode::Receive);
    EXPECT_EQ(points[0].label, "TX 128B No Aff");
}

TEST(SweepBuilder, VariantsOverrideAxesAndExtendLabels)
{
    const std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .mode(workload::TtcpMode::Transmit)
            .size(1024)
            .affinity(core::AffinityMode::None)
            .variant("as-is", [](core::SystemConfig &) {})
            .variant("full+4p",
                     [](core::SystemConfig &cfg) {
                         cfg.affinity = core::AffinityMode::Full;
                         cfg.platform.numCpus = 4;
                     })
            .build();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].config.affinity, core::AffinityMode::None);
    EXPECT_EQ(points[1].config.affinity, core::AffinityMode::Full);
    EXPECT_EQ(points[1].config.platform.numCpus, 4);
    EXPECT_EQ(points[0].label, "TX 1024B No Aff [as-is]");
    // Label reflects the post-variant config.
    EXPECT_EQ(points[1].label, "TX 1024B Full Aff [full+4p]");
}

TEST(ResultsJson, RoundTripsThroughputUtilAndCounters)
{
    core::Campaign::Options opts;
    opts.numThreads = 2;
    opts.seed = 123;
    const core::ResultSet rs = core::Campaign::run(tinyPoints(), opts);

    const std::vector<core::JsonRunRecord> parsed =
        test::jsonlRoundTrip(rs);
    ASSERT_EQ(parsed.size(), rs.size());

    for (std::size_t i = 0; i < rs.size(); ++i) {
        const core::JsonRunRecord &rec = parsed[i];
        const core::CampaignPoint &p = rs.point(i);
        const core::RunResult &r = rs.result(i);

        EXPECT_EQ(rec.label, p.label);
        EXPECT_EQ(rec.mode, p.config.ttcp().mode);
        EXPECT_EQ(rec.msgSize, p.config.ttcp().msgSize);
        EXPECT_EQ(rec.affinity, p.config.affinity);
        EXPECT_EQ(rec.connections, p.config.numConnections);
        EXPECT_EQ(rec.cpus, p.config.platform.numCpus);
        EXPECT_EQ(rec.seed, p.config.platform.seed);
        EXPECT_EQ(rec.steering,
                  std::string(
                      net::steeringKindName(p.config.steering.kind)));
        EXPECT_EQ(rec.queues, p.config.steering.numQueues);

        EXPECT_EQ(rec.result.seconds, r.seconds);
        EXPECT_EQ(rec.result.payloadBytes, r.payloadBytes);
        EXPECT_EQ(rec.result.throughputMbps, r.throughputMbps);
        EXPECT_EQ(rec.result.cpuUtil, r.cpuUtil);
        EXPECT_EQ(rec.result.ghzPerGbps, r.ghzPerGbps);
        EXPECT_EQ(rec.result.irqs, r.irqs);
        EXPECT_EQ(rec.result.ipis, r.ipis);
        EXPECT_EQ(rec.result.migrations, r.migrations);
        EXPECT_EQ(rec.result.contextSwitches, r.contextSwitches);
        for (std::size_t e = 0; e < prof::numEvents; ++e)
            EXPECT_EQ(rec.result.eventTotals[e], r.eventTotals[e]);
        for (int c = 0; c < p.config.platform.numCpus; ++c) {
            EXPECT_EQ(rec.result.utilPerCpu[static_cast<std::size_t>(c)],
                      r.utilPerCpu[static_cast<std::size_t>(c)]);
        }
        ASSERT_EQ(rec.result.rxFramesPerQueue.size(),
                  r.rxFramesPerQueue.size());
        for (std::size_t q = 0; q < r.rxFramesPerQueue.size(); ++q)
            EXPECT_EQ(rec.result.rxFramesPerQueue[q],
                      r.rxFramesPerQueue[q]);
    }
}

TEST(ResultsJson, RoundTripsSteeringPolicyAndQueueCounters)
{
    // A multi-queue RSS point: per-queue frame counts must survive the
    // write/read cycle, as must the policy name and queue count.
    core::SystemConfig base;
    base.numConnections = 2;
    base.platform.numCpus = 2;
    base.steering.kind = net::SteeringKind::Rss;
    base.steering.numQueues = 2;

    std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(tinySchedule())
            .mode(workload::TtcpMode::Receive)
            .size(8192)
            .affinity(core::AffinityMode::None)
            .build();

    core::Campaign::Options opts;
    opts.numThreads = 1;
    const core::ResultSet rs = core::Campaign::run(points, opts);

    const std::vector<core::JsonRunRecord> parsed =
        test::jsonlRoundTrip(rs);
    ASSERT_EQ(parsed.size(), 1u);
    const core::JsonRunRecord &rec = parsed[0];
    EXPECT_EQ(rec.steering, "rss");
    EXPECT_EQ(rec.queues, 2);
    ASSERT_EQ(rec.result.rxFramesPerQueue.size(), 2u);
    EXPECT_EQ(rec.result.rxFramesPerQueue[0],
              rs.result(0).rxFramesPerQueue[0]);
    EXPECT_EQ(rec.result.rxFramesPerQueue[1],
              rs.result(0).rxFramesPerQueue[1]);
    // RX traffic arrived, and every frame is accounted to some queue.
    EXPECT_GT(rec.result.rxFramesPerQueue[0] +
                  rec.result.rxFramesPerQueue[1],
              0u);
}

TEST(SweepBuilder, SteeringAxisLabelsNonDefaultPolicies)
{
    net::SteeringConfig rss4;
    rss4.kind = net::SteeringKind::Rss;
    rss4.numQueues = 4;
    const std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .mode(workload::TtcpMode::Transmit)
            .size(1024)
            .affinity(core::AffinityMode::None)
            .steerings({net::SteeringConfig{}, rss4})
            .build();
    ASSERT_EQ(points.size(), 2u);
    // The paper's own policy stays unlabelled (existing label-keyed
    // lookups depend on it); non-default policies are called out.
    EXPECT_EQ(points[0].label, "TX 1024B No Aff");
    EXPECT_EQ(points[1].label, "TX 1024B No Aff rss:4q");
    EXPECT_EQ(points[1].config.steering.kind, net::SteeringKind::Rss);
    EXPECT_EQ(points[1].config.steering.numQueues, 4);
}

TEST(ResultsJson, RoundTripsIntervalSeries)
{
    // One point with interval stats armed: the v3 "intervals" block
    // must survive the write/read cycle window for window.
    core::SystemConfig base;
    base.numConnections = 2;
    base.statsIntervalUs = 500.0;

    std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(tinySchedule())
            .mode(workload::TtcpMode::Transmit)
            .size(4096)
            .affinity(core::AffinityMode::Full)
            .build();

    core::Campaign::Options opts;
    opts.numThreads = 1;
    const core::ResultSet rs = core::Campaign::run(points, opts);
    const prof::IntervalSeries &orig = rs.result(0).intervals;
    ASSERT_FALSE(orig.empty());

    const std::vector<core::JsonRunRecord> parsed =
        test::jsonlRoundTrip(rs);
    ASSERT_EQ(parsed.size(), 1u);
    const prof::IntervalSeries &got = parsed[0].result.intervals;

    EXPECT_EQ(got.intervalTicks, orig.intervalTicks);
    EXPECT_EQ(got.numCpus, orig.numCpus);
    EXPECT_EQ(got.numQueues, orig.numQueues);
    ASSERT_EQ(got.windows.size(), orig.windows.size());
    for (std::size_t w = 0; w < orig.windows.size(); ++w) {
        EXPECT_EQ(got.windows[w].start, orig.windows[w].start);
        EXPECT_EQ(got.windows[w].end, orig.windows[w].end);
        EXPECT_EQ(got.windows[w].binDeltas, orig.windows[w].binDeltas);
        EXPECT_EQ(got.windows[w].rxFramesPerQueue,
                  orig.windows[w].rxFramesPerQueue);
    }
}

TEST(ResultsJson, RoundTripSurvivesCommaDecimalLocale)
{
    // Under a comma-decimal LC_NUMERIC, printf("%.17g") writes "0,5"
    // and std::stod reads it back as 0 — the old implementation
    // corrupted every double in the file. std::to_chars/from_chars
    // ignore the locale entirely.
    const char *old = std::setlocale(LC_NUMERIC, nullptr);
    const std::string saved = old ? old : "C";
    if (!std::setlocale(LC_NUMERIC, "de_DE.UTF-8") &&
        !std::setlocale(LC_NUMERIC, "de_DE")) {
        GTEST_SKIP() << "no comma-decimal locale installed";
    }

    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.seed = 7;
    std::vector<core::CampaignPoint> points = tinyPoints();
    points.resize(1);
    const core::ResultSet rs = core::Campaign::run(points, opts);

    std::vector<core::JsonRunRecord> parsed;
    try {
        parsed = test::jsonlRoundTrip(rs);
    } catch (...) {
        std::setlocale(LC_NUMERIC, saved.c_str());
        throw;
    }
    std::setlocale(LC_NUMERIC, saved.c_str());

    ASSERT_EQ(parsed.size(), 1u);
    const core::RunResult &r = rs.result(0);
    const core::RunResult &got = parsed[0].result;
    EXPECT_EQ(got.seconds, r.seconds);
    EXPECT_EQ(got.throughputMbps, r.throughputMbps);
    EXPECT_EQ(got.cpuUtil, r.cpuUtil);
    EXPECT_EQ(got.ghzPerGbps, r.ghzPerGbps);
    ASSERT_GT(r.cpuUtil, 0.0); // a zero would mask the stod failure
}

TEST(ResultsJson, DocumentPointsAreTheJsonlRecords)
{
    // The document is write-only: pin its bytes to the JSONL records
    // the engine does read back. Each point line is the record line
    // minus its schema and point_key fields.
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.seed = 9;
    std::vector<core::CampaignPoint> points = tinyPoints();
    const core::ResultSet rs = core::Campaign::run(points, opts);
    core::Campaign::applyPointSeeds(points, opts);
    const std::vector<std::uint64_t> keys =
        core::Campaign::pointKeys(points);

    std::ostringstream doc;
    core::writeResultsJson(doc, rs);
    const core::json::Value root = core::json::parse(doc.str());
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.integer<int>("schema_version"), 6);
    EXPECT_EQ(root.u64("campaign_seed"), 9u);
    EXPECT_EQ(root.integer<int>("threads"), rs.threadsUsed);
    ASSERT_EQ(root.field("points").items.size(), rs.size());

    std::istringstream lines(doc.str());
    std::string line;
    std::size_t i = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("    {", 0) != 0)
            continue; // the pretty-printed top level
        ASSERT_LT(i, rs.size());
        line = line.substr(4);
        if (line.back() == ',')
            line.pop_back();
        std::ostringstream rec;
        core::writeJsonlRecord(rec, rs.point(i), rs.result(i), keys[i]);
        std::string expect = rec.str();
        expect.pop_back(); // the newline
        const std::string prefix = "{\"schema\": 6, \"point_key\": \"" +
                                   core::formatPointKey(keys[i]) +
                                   "\", ";
        ASSERT_EQ(expect.rfind(prefix, 0), 0u) << expect;
        EXPECT_EQ(line, "{" + expect.substr(prefix.size()))
            << "point " << i;
        ++i;
    }
    EXPECT_EQ(i, rs.size());
}

TEST(ResultSet, LookupFailuresAreDescriptive)
{
    core::Campaign::Options opts;
    opts.numThreads = 1;
    std::vector<core::CampaignPoint> points = tinyPoints();
    points.resize(1);
    const core::ResultSet rs = core::Campaign::run(points, opts);
    EXPECT_EQ(rs.find(workload::TtcpMode::Transmit, 999,
                      core::AffinityMode::Full),
              nullptr);
    EXPECT_THROW(rs.at(workload::TtcpMode::Transmit, 999,
                       core::AffinityMode::Full),
                 std::runtime_error);
    EXPECT_EQ(rs.findLabel("nope"), nullptr);
    EXPECT_THROW(rs.at("nope"), std::runtime_error);
}

} // namespace
