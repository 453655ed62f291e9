/**
 * @file
 * Streaming JSONL results: campaign streaming, the shared v2-v5
 * record ladder, crash tolerance, resume semantics, and shard merge
 * byte-identity with an unsharded run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/campaign.hh"
#include "src/core/point_key.hh"
#include "src/core/results_json.hh"
#include "src/core/results_jsonl.hh"
#include "src/core/sweep.hh"

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
        .size(1024)
        .affinities({core::AffinityMode::None,
                     core::AffinityMode::Full})
        .build();
}

/** Temp-file path that is removed when the test ends. */
class TempPath
{
  public:
    explicit TempPath(const char *name)
        : p(::testing::TempDir() + name)
    {
        std::remove(p.c_str());
    }
    ~TempPath() { std::remove(p.c_str()); }
    const std::string &str() const { return p; }

  private:
    std::string p;
};

std::string
documentBytes(const core::ResultSet &rs)
{
    std::ostringstream os;
    core::writeResultsJson(os, rs);
    return os.str();
}

/** A complete minimal record body shared by the ladder tests. */
const char *const recordBody =
    "\"label\": \"L\", \"config\": {\"mode\": \"tx\", "
    "\"msg_size\": 1024, \"affinity\": \"full\", "
    "\"connections\": 2, \"cpus\": 2, \"seed\": 99, "
    "\"steering\": \"static\", \"queues\": 1}, "
    "\"result\": {\"seconds\": 0.5, \"payload_bytes\": 1000, "
    "\"throughput_mbps\": 16.5, \"cpu_util\": 0.5, "
    "\"ghz_per_gbps\": 1.25, \"util_per_cpu\": [0.5, 0.5], "
    "\"irqs\": 10, \"ipis\": 2, \"migrations\": 1, "
    "\"context_switches\": 5, \"rx_frames_per_queue\": [3], "
    "\"event_totals\": {}}";

TEST(ResultsJsonl, CampaignStreamsOneRecordPerPoint)
{
    TempPath path("jsonl_stream.jsonl");
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.jsonlPath = path.str();

    const core::ResultSet rs =
        core::Campaign::run(tinyPoints(), opts);
    ASSERT_EQ(rs.size(), 2u);

    const core::JsonlFile file =
        core::readResultsJsonlFile(path.str());
    EXPECT_FALSE(file.truncatedTail);
    ASSERT_EQ(file.records.size(), 2u);
    for (const core::JsonlRecord &r : file.records) {
        EXPECT_NE(r.key, 0u);
        EXPECT_EQ(r.schemaVersion, core::resultsSchemaVersion);
    }
    EXPECT_NE(file.records[0].key, file.records[1].key);

    // Streamed records carry the same payload the ResultSet does
    // (ordering may differ under threads; here numThreads == 1).
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(file.records[i].rec.label, rs.point(i).label);
        EXPECT_EQ(file.records[i].rec.result.throughputMbps,
                  rs.result(i).throughputMbps);
        EXPECT_EQ(file.records[i].rec.result.payloadBytes,
                  rs.result(i).payloadBytes);
    }
}

TEST(ResultsJsonl, MonolithicAndJsonlReadersAgreeAcrossLadder)
{
    // The same v2-v6 record payload must parse identically whichever
    // container carried it (per-file schema_version vs per-line
    // schema token).
    for (int version = 2; version <= core::resultsSchemaVersion;
         ++version) {
        std::ostringstream mono;
        mono << "{\"schema_version\": " << version
             << ", \"campaign_seed\": 1, \"threads\": 1, "
             << "\"points\": [{" << recordBody << "}]}";
        std::istringstream mono_in(mono.str());
        const core::JsonCampaign doc =
            core::readResultsJson(mono_in);
        ASSERT_EQ(doc.points.size(), 1u) << "version " << version;

        std::ostringstream line;
        line << "{\"schema\": " << version
             << ", \"point_key\": \"00000000000000aa\", "
             << recordBody << "}\n";
        std::istringstream jsonl_in(line.str());
        const core::JsonlFile file = core::readResultsJsonl(jsonl_in);
        ASSERT_EQ(file.records.size(), 1u) << "version " << version;
        EXPECT_EQ(file.records[0].schemaVersion, version);
        EXPECT_EQ(file.records[0].key, 0xaau);

        const core::JsonRunRecord &a = doc.points[0];
        const core::JsonRunRecord &b = file.records[0].rec;
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.mode, b.mode);
        EXPECT_EQ(a.msgSize, b.msgSize);
        EXPECT_EQ(a.affinity, b.affinity);
        EXPECT_EQ(a.connections, b.connections);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.result.seconds, b.result.seconds);
        EXPECT_EQ(a.result.payloadBytes, b.result.payloadBytes);
        EXPECT_EQ(a.result.throughputMbps, b.result.throughputMbps);
        EXPECT_EQ(a.result.irqs, b.result.irqs);
    }
}

TEST(ResultsJsonl, TruncatedFinalLineIsToleratedAndRepaired)
{
    TempPath path("jsonl_torn.jsonl");
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << "{\"schema\": 5, \"point_key\": "
               "\"0000000000000001\", "
            << recordBody << "}\n";
        out << "{\"schema\": 5, \"point_key\": "
               "\"0000000000000002\", "
            << recordBody << "}\n";
        out << "{\"schema\": 5, \"point_"; // torn mid-write
    }

    const core::JsonlFile file =
        core::readResultsJsonlFile(path.str());
    EXPECT_TRUE(file.truncatedTail);
    ASSERT_EQ(file.records.size(), 2u);

    // The appender truncates the torn tail so the stream stays
    // well-formed for every subsequent reader.
    {
        core::JsonlAppender appender(path.str());
        ASSERT_TRUE(appender.ok());
        core::CampaignPoint point;
        point.label = "appended";
        point.config.numConnections = 2;
        core::RunResult result;
        ASSERT_TRUE(appender.append(point, result, 3));
    }
    const core::JsonlFile repaired =
        core::readResultsJsonlFile(path.str());
    EXPECT_FALSE(repaired.truncatedTail);
    ASSERT_EQ(repaired.records.size(), 3u);
    EXPECT_EQ(repaired.records[2].key, 3u);
    EXPECT_EQ(repaired.records[2].rec.label, "appended");
}

TEST(ResultsJsonl, MalformedInteriorLineIsAHardError)
{
    std::ostringstream text;
    text << "{\"schema\": 5, \"point_key\": \"0000000000000001\", "
         << recordBody << "}\n";
    text << "this is not json\n";
    text << "{\"schema\": 5, \"point_key\": \"0000000000000002\", "
         << recordBody << "}\n";
    std::istringstream in(text.str());
    try {
        (void)core::readResultsJsonl(in);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ResultsJsonl, UnsupportedSchemaTokenIsAStructuredError)
{
    std::ostringstream text;
    text << "{\"schema\": 7, \"point_key\": \"0000000000000001\", "
         << recordBody << "}\n";
    std::istringstream in(text.str());
    try {
        (void)core::readResultsJsonl(in);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unsupported schema token 7"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    }
}

/** @return @p text with field @p name's scalar token replaced by @p value. */
std::string
withField(std::string text, const std::string &name,
          const std::string &value)
{
    const std::string tag = "\"" + name + "\": ";
    const std::size_t at = text.find(tag);
    EXPECT_NE(at, std::string::npos) << name;
    const std::size_t start = at + tag.size();
    return text.replace(start, text.find_first_of(",}", start) - start,
                        value);
}

TEST(ResultsJsonl, IntegerFieldsAreRangeChecked)
{
    struct Case
    {
        const char *field;
        const char *value;
        bool ok;
    };
    const Case cases[] = {
        {"cpus", "1e300", false},
        {"msg_size", "-1", false},
        {"msg_size", "4294967296", false},
        {"connections", "3000000000", false},
        {"irqs", "-5", false},
        {"cpus", "2.7", false},
        {"schema", "6.5", false},
        {"rx_frames_per_queue", "[1.5]", false},
        {"cpus", "2.0", true},
        {"seed", "9007199254740993", true}, // 2^53 + 1
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.field) + " = " + c.value);
        const bool schema = std::string(c.field) == "schema";
        const std::string body =
            schema ? recordBody : withField(recordBody, c.field, c.value);
        std::istringstream jsonl(withField(
            "{\"schema\": 6, \"point_key\": \"0000000000000001\", " +
                body + "}\n",
            "schema", schema ? c.value : "6"));
        std::istringstream doc(
            "{\"schema_version\": 6, \"campaign_seed\": 1, "
            "\"threads\": 1, \"points\": [{" +
            body + "}]}\n");
        if (c.ok) {
            const core::JsonlFile file = core::readResultsJsonl(jsonl);
            ASSERT_EQ(file.records.size(), 1u);
            const core::JsonCampaign campaign = core::readResultsJson(doc);
            ASSERT_EQ(campaign.points.size(), 1u);
            for (const core::JsonRunRecord &rec :
                 {file.records[0].rec, campaign.points[0]}) {
                EXPECT_EQ(rec.cpus, 2);
                EXPECT_EQ(rec.seed, std::string(c.field) == "seed"
                                        ? 9007199254740993ull
                                        : 99ull);
            }
            continue;
        }
        try {
            (void)core::readResultsJsonl(jsonl);
            ADD_FAILURE() << "jsonl: expected std::runtime_error";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
            EXPECT_NE(msg.find(std::string("'") + c.field + "'"),
                      std::string::npos)
                << msg;
            std::string token = c.value; // "[1.5]" names 1.5
            if (token.front() == '[')
                token = token.substr(1, token.size() - 2);
            EXPECT_NE(msg.find(token), std::string::npos) << msg;
        }
        if (!schema) {
            EXPECT_THROW((void)core::readResultsJson(doc),
                         std::runtime_error);
        }
    }
}

TEST(ResultsJsonl, MissingFileThrowsInsteadOfLookingEmpty)
{
    EXPECT_THROW(
        (void)core::readResultsJsonlFile("/nonexistent/nope.jsonl"),
        std::runtime_error);
}

TEST(ResultsJsonl, DuplicateKeyLastRecordWins)
{
    std::ostringstream text;
    text << "{\"schema\": 5, \"point_key\": \"0000000000000001\", "
         << recordBody << "}\n";
    // Same key again — a resume re-ran the point; the newer record
    // supersedes.
    std::string second(recordBody);
    const std::string from = "\"throughput_mbps\": 16.5";
    second.replace(second.find(from), from.size(),
                   "\"throughput_mbps\": 99.5");
    text << "{\"schema\": 5, \"point_key\": \"0000000000000001\", "
         << second << "}\n";

    std::istringstream in(text.str());
    const core::JsonlFile file = core::readResultsJsonl(in);
    ASSERT_EQ(file.records.size(), 2u);
    const auto latest = file.latestByKey();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest.at(1), 1u);

    const std::vector<core::JsonlRecord> merged =
        core::mergeShardFiles({file});
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].rec.result.throughputMbps, 99.5);
}

TEST(ResultsJsonl, CrossShardDuplicateKeyThrows)
{
    std::istringstream a_in(
        std::string("{\"schema\": 5, \"point_key\": "
                    "\"0000000000000001\", ") +
        recordBody + "}\n");
    std::istringstream b_in(
        std::string("{\"schema\": 5, \"point_key\": "
                    "\"0000000000000001\", ") +
        recordBody + "}\n");
    const core::JsonlFile a = core::readResultsJsonl(a_in);
    const core::JsonlFile b = core::readResultsJsonl(b_in);
    try {
        (void)core::mergeShardFiles({a, b});
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("0000000000000001"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
    }
}

TEST(ResultsJsonl, ResumeSkipsCompletedAndRerunsFailed)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 1;

    // Reference run: both points, streamed.
    TempPath full_path("jsonl_full.jsonl");
    core::Campaign::Options full_opts = opts;
    full_opts.jsonlPath = full_path.str();
    const core::ResultSet reference =
        core::Campaign::run(points, full_opts);
    ASSERT_EQ(reference.failureCount(), 0u);

    // Build a resume file where point 0's record is a *failure* and
    // point 1's is the real result: a crashed sweep whose first point
    // degraded.
    std::vector<core::CampaignPoint> keyed = points;
    core::Campaign::applyPointSeeds(keyed, opts);
    const std::vector<std::uint64_t> keys =
        core::Campaign::pointKeys(keyed);
    TempPath resume_path("jsonl_resume.jsonl");
    {
        std::ofstream out(resume_path.str(), std::ios::binary);
        core::RunResult failed;
        failed.failed = true;
        failed.failure.reason = "synthetic failure";
        failed.failure.attempts = 2;
        core::writeJsonlRecord(out, keyed[0], failed, keys[0]);
        core::writeJsonlRecord(out, keyed[1], reference.result(1),
                               keys[1]);
    }

    // Resume: the failed point re-runs, the completed one is
    // prefilled and skipped.
    std::vector<int> executions(points.size(), 0);
    std::size_t resumed_seen = 0;
    core::Campaign::Options resume_opts = opts;
    resume_opts.resumeFrom = resume_path.str();
    resume_opts.jsonlPath = resume_path.str();
    resume_opts.systemHook = [&](core::System &,
                                 const core::CampaignPoint &,
                                 std::size_t index) {
        executions[index] += 1;
    };
    resume_opts.progressHook =
        [&](const core::Campaign::Progress &p) {
            resumed_seen = p.resumed;
        };
    const core::ResultSet resumed =
        core::Campaign::run(points, resume_opts);

    EXPECT_EQ(executions[0], 1) << "failed point must re-run";
    EXPECT_EQ(executions[1], 0) << "completed point must be skipped";
    EXPECT_EQ(resumed_seen, 1u);
    EXPECT_EQ(resumed.failureCount(), 0u);

    // The re-run used exactly the seed an un-resumed campaign would:
    // its result matches the reference bit for bit, and the schema
    // fields of the prefilled point survive the round trip.
    EXPECT_EQ(resumed.result(0).throughputMbps,
              reference.result(0).throughputMbps);
    EXPECT_EQ(resumed.result(0).payloadBytes,
              reference.result(0).payloadBytes);
    EXPECT_EQ(resumed.result(1).throughputMbps,
              reference.result(1).throughputMbps);
    EXPECT_EQ(resumed.result(1).seconds, reference.result(1).seconds);

    // The stream now ends with the re-run's fresh record, which
    // supersedes the failure: assembling from it reproduces the
    // reference document byte for byte.
    const core::JsonlFile stream =
        core::readResultsJsonlFile(resume_path.str());
    const core::ResultSet assembled = core::assembleResultSet(
        points, opts, core::mergeShardFiles({stream}),
        reference.threadsUsed);
    EXPECT_EQ(documentBytes(assembled), documentBytes(reference));
}

TEST(ResultsJsonl, ShardedRunsMergeByteIdenticalToUnsharded)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 1;
    const core::ResultSet reference =
        core::Campaign::run(points, opts);

    TempPath shard0("jsonl_shard0.jsonl");
    TempPath shard1("jsonl_shard1.jsonl");
    for (int s = 0; s < 2; ++s) {
        core::Campaign::Options shard_opts = opts;
        shard_opts.shardIndex = s;
        shard_opts.shardCount = 2;
        shard_opts.jsonlPath =
            s == 0 ? shard0.str() : shard1.str();
        (void)core::Campaign::run(points, shard_opts);
    }

    const std::vector<core::JsonlRecord> merged =
        core::mergeShardFiles(
            {core::readResultsJsonlFile(shard0.str()),
             core::readResultsJsonlFile(shard1.str())});
    const core::ResultSet assembled = core::assembleResultSet(
        points, opts, merged, reference.threadsUsed);
    EXPECT_EQ(documentBytes(assembled), documentBytes(reference));
}

TEST(ResultsJsonl, InvalidShardOptionsThrow)
{
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.shardCount = 2;
    opts.shardIndex = 2;
    EXPECT_THROW((void)core::Campaign::run(tinyPoints(), opts),
                 std::runtime_error);
    opts.shardIndex = -1;
    EXPECT_THROW((void)core::Campaign::run(tinyPoints(), opts),
                 std::runtime_error);
    opts.shardIndex = 0;
    opts.shardCount = 0;
    EXPECT_THROW((void)core::Campaign::run(tinyPoints(), opts),
                 std::runtime_error);
}

TEST(ResultsJsonl, AssembleThrowsOnMissingPoints)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 1;
    try {
        (void)core::assembleResultSet(points, opts, {}, 1);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        // Every missing label must be named.
        const std::string msg = e.what();
        EXPECT_NE(msg.find(points[0].label), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(points[1].label), std::string::npos)
            << msg;
    }
}

TEST(ResultsJsonl, MonolithicConvertersRoundTrip)
{
    core::Campaign::Options opts;
    opts.numThreads = 1;
    const core::ResultSet rs = core::Campaign::run(tinyPoints(), opts);
    const std::string doc = documentBytes(rs);

    // monolithic -> records -> monolithic is byte-identical: both
    // writers share the record emitter.
    std::istringstream in(doc);
    const core::JsonCampaign parsed = core::readResultsJson(in);
    const std::vector<core::JsonlRecord> records =
        core::recordsFromMonolithic(parsed);
    ASSERT_EQ(records.size(), rs.size());
    for (const core::JsonlRecord &r : records)
        EXPECT_EQ(r.key, 0u) << "converted records carry no key";

    std::ostringstream out;
    core::writeMonolithicFromRecords(out, parsed.campaignSeed,
                                     parsed.threads, records);
    EXPECT_EQ(out.str(), doc);
}

TEST(ResultsJsonl, JsonlStreamedDocumentMatchesMonolithic)
{
    // End to end: stream a campaign to JSONL, rebuild the monolithic
    // document from the stream alone, compare with the document the
    // ResultSet writes directly.
    std::vector<core::CampaignPoint> points = tinyPoints();
    TempPath path("jsonl_roundtrip.jsonl");
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.jsonlPath = path.str();
    const core::ResultSet rs = core::Campaign::run(points, opts);

    const core::JsonlFile file =
        core::readResultsJsonlFile(path.str());
    const core::ResultSet assembled = core::assembleResultSet(
        points, opts, core::mergeShardFiles({file}), rs.threadsUsed);
    EXPECT_EQ(documentBytes(assembled), documentBytes(rs));
}

} // namespace
