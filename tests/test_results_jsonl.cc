/**
 * @file
 * Streaming JSONL results: campaign streaming, the schema 5/6 record
 * reader and the writer rules it checks, crash tolerance, resume
 * semantics, and shard merge byte-identity with an unsharded run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/campaign.hh"
#include "src/core/point_key.hh"
#include "src/core/results_json.hh"
#include "src/core/results_jsonl.hh"
#include "src/core/sweep.hh"
#include "src/sim/random.hh"

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

/**
 * A complete minimal schema-5 record body shared by the tests. Like the
 * writer's, its event_totals holds one entry per prof::Event.
 */
const char *const recordBody =
    "\"label\": \"L\", \"config\": {\"workload\": \"ttcp\", "
    "\"mode\": \"tx\", \"msg_size\": 1024, \"affinity\": \"full\", "
    "\"connections\": 2, \"cpus\": 2, \"seed\": 99, "
    "\"steering\": \"static\", \"queues\": 1, \"faults\": \"off\"}, "
    "\"result\": {\"seconds\": 0.5, \"payload_bytes\": 1000, "
    "\"throughput_mbps\": 16.5, \"cpu_util\": 0.5, "
    "\"ghz_per_gbps\": 1.25, \"util_per_cpu\": [0.5, 0.5], "
    "\"irqs\": 10, \"ipis\": 2, \"migrations\": 1, "
    "\"context_switches\": 5, \"tx_drops_ring_full\": 0, "
    "\"rx_drops_ring_full\": 0, \"rx_frames_per_queue\": [3], "
    "\"event_totals\": {\"cycles\": 900, \"instructions\": 400, "
    "\"branches\": 80, \"br_mispredicts\": 7, \"llc_misses\": 6, "
    "\"l2_misses\": 9, \"tc_misses\": 5, \"itlb_misses\": 4, "
    "\"dtlb_misses\": 3, \"machine_clears\": 2}}";

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

TEST(ResultsJsonl, OnlySchemaTokensFiveAndSixParse)
{
    // Streams began at schema 5, and v6 only added optional fields,
    // so both tokens read the same payload. Earlier tokens were never
    // streamed and, like later ones, are refused with the line.
    core::JsonRunRecord first;
    for (int version = 2; version <= 7; ++version) {
        SCOPED_TRACE("schema " + std::to_string(version));
        std::ostringstream line;
        line << "{\"schema\": " << version
             << ", \"point_key\": \"00000000000000aa\", "
             << recordBody << "}\n";
        std::istringstream in(line.str());
        if (version != 5 && version != 6) {
            try {
                (void)core::readResultsJsonl(in);
                ADD_FAILURE() << "expected std::runtime_error";
            } catch (const std::runtime_error &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
                EXPECT_NE(msg.find("unsupported schema token " +
                                   std::to_string(version)),
                          std::string::npos)
                    << msg;
            }
            continue;
        }
        const core::JsonlFile file = core::readResultsJsonl(in);
        ASSERT_EQ(file.records.size(), 1u);
        EXPECT_EQ(file.records[0].schemaVersion, version);
        EXPECT_EQ(file.records[0].key, 0xaau);
        const core::JsonRunRecord &b = file.records[0].rec;
        if (version == 5) {
            first = b;
            continue;
        }
        const core::JsonRunRecord &a = first;
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
        if (c.ok) {
            const core::JsonlFile file = core::readResultsJsonl(jsonl);
            ASSERT_EQ(file.records.size(), 1u);
            const core::JsonRunRecord &rec = file.records[0].rec;
            EXPECT_EQ(rec.cpus, 2);
            EXPECT_EQ(rec.seed, std::string(c.field) == "seed"
                                    ? 9007199254740993ull
                                    : 99ull);
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
    }
}

/** recordBody as schema 6, with a reorder block and an intervals
 *  block: every list the reader checks is present. */
std::string
richRecordLine()
{
    std::string body(recordBody);
    const std::string tail = "\"event_totals\": ";
    body.replace(body.find(tail), tail.size(),
                 "\"reorder\": {\"ooo_arrivals\": 3, "
                 "\"ooo_windows\": 1, \"ooo_window_ticks\": 500, "
                 "\"ooo_depth_hist\": [3, 0, 0, 0, 0, 0, 0, 0], "
                 "\"dup_ack_bursts\": 1, \"retransmits\": 1, "
                 "\"spurious_retransmits\": 1, \"sender_hops\": 0}, "
                 "\"intervals\": {\"interval_ticks\": 1000, "
                 "\"num_cpus\": 2, \"num_queues\": 1, \"windows\": "
                 "[{\"start\": 0, \"end\": 1000, "
                 "\"rx_frames_per_queue\": [7], \"deltas\": [1, 2]}]}, " +
                     tail);
    return "{\"schema\": 6, \"point_key\": \"0000000000000001\", " +
           body + "}\n";
}

TEST(ResultsJsonl, MalformedFieldsAreRejected)
{
    // Every rule the writer follows is a reader check: a record that
    // breaks one throws naming the line and the field, instead of
    // reading as zeros or as an unknown token.
    struct Case
    {
        const char *field;
        std::vector<std::pair<std::string, std::string>> edits;
    };
    const Case cases[] = {
        {"util_per_cpu",
         {{"[0.5, 0.5]", "[\"junk\", {}]"}}},
        {"util_per_cpu", {{"[0.5, 0.5]", "[0.5]"}}},
        {"util_per_cpu", {{"[0.5, 0.5]", "[0.5, 0.5, 0.5]"}}},
        {"util_per_cpu", {{"[0.5, 0.5]", "\"notalist\""}}},
        {"util_per_cpu",
         {{"\"cpus\": 2", "\"cpus\": 9"},
          {"[0.5, 0.5]", "[0, 0, 0, 0, 0, 0, 0, 0, 0]"}}},
        {"rx_frames_per_queue", {{"[3]", "\"notalist\""}}},
        {"rx_frames_per_queue", {{"[7]", "7"}}},
        {"deltas", {{"[1, 2]", "\"x\""}}},
        {"ooo_depth_hist",
         {{"[3, 0, 0, 0, 0, 0, 0, 0]", "[3, 0, 0, 0, 0, 0, 0, 0, 0, 0]"}}},
        {"ooo_depth_hist",
         {{"[3, 0, 0, 0, 0, 0, 0, 0]", "[3, 0, 0, 0, 0, 0, 0]"}}},
        {"event_totals",
         {{"{\"cycles\"", "[{\"cycles\""},
          {"\"machine_clears\": 2}", "\"machine_clears\": 2}]"}}},
        // Missing and unknown names: the writer emits every event.
        {"event_totals", {{"\"tc_misses\": 5, ", ""}}},
        {"event_totals",
         {{"\"machine_clears\": 2}",
           "\"machine_clears\": 2, \"bogus\": 1}"}}},
        {"workload", {{"\"ttcp\"", "\"zzz\""}}},
        {"steering", {{"\"static\"", "\"bogus\""}}},
        {"workload", {{"\"workload\": \"ttcp\", ", ""}}},
        {"faults", {{", \"faults\": \"off\"", ""}}},
        {"tx_drops_ring_full", {{"\"tx_drops_ring_full\": 0, ", ""}}},
        {"rx_drops_ring_full", {{"\"rx_drops_ring_full\": 0, ", ""}}},
        {"point_key", {{"0000000000000001", "0000000000000000"}}},
        // A duplicated key would silently keep one of its values.
        {"cpus", {{"\"cpus\": 2", "\"cpus\": 2, \"cpus\": 4"}}},
    };
    {
        std::istringstream in(richRecordLine());
        const core::JsonlFile file = core::readResultsJsonl(in);
        ASSERT_EQ(file.records.size(), 1u);
        EXPECT_EQ(file.records[0].rec.result.reorder.oooDepthHist[0], 3u);
        ASSERT_EQ(file.records[0].rec.result.intervals.windows.size(), 1u);
        const auto &totals = file.records[0].rec.result.eventTotals;
        EXPECT_EQ(totals[static_cast<std::size_t>(prof::Event::Cycles)],
                  900u);
        EXPECT_EQ(
            totals[static_cast<std::size_t>(prof::Event::MachineClears)],
            2u);
    }
    for (const Case &c : cases) {
        std::string line = richRecordLine();
        for (const auto &[from, to] : c.edits) {
            const std::size_t at = line.find(from);
            ASSERT_NE(at, std::string::npos) << from;
            line.replace(at, from.size(), to);
        }
        SCOPED_TRACE(line);
        std::istringstream in(line);
        try {
            (void)core::readResultsJsonl(in);
            ADD_FAILURE() << c.field << ": expected std::runtime_error";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
            EXPECT_NE(msg.find(std::string("'") + c.field + "'"),
                      std::string::npos)
                << msg;
        }
    }
}

/** Byte spans of the number tokens outside strings in @p line. */
std::vector<std::pair<std::size_t, std::size_t>>
numberSpans(const std::string &line)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            const std::size_t end =
                line.find_first_not_of("+-.0123456789eE", i);
            spans.emplace_back(i, end - i);
            i = end - 1;
        }
    }
    return spans;
}

/** Start offsets of the object keys (a string followed by ':'). */
std::vector<std::size_t>
keyStarts(const std::string &line)
{
    std::vector<std::size_t> starts;
    for (std::size_t i = line.find('"'); i != std::string::npos;) {
        const std::size_t close = line.find('"', i + 1);
        if (close + 1 < line.size() && line[close + 1] == ':')
            starts.push_back(i);
        i = line.find('"', close + 1);
    }
    return starts;
}

TEST(ResultsJsonl, SeededMutationsParseOrThrowNamingTheLine)
{
    // Valid v6 lines: a full record and one without the optional
    // reorder and intervals blocks.
    const std::string plain = "{\"schema\": 6, \"point_key\": "
                              "\"0000000000000002\", " +
                              std::string(recordBody) + "}\n";
    const std::vector<std::string> valid = {richRecordLine(), plain,
                                            richRecordLine()};
    {
        std::string all;
        for (const std::string &l : valid)
            all += l;
        std::istringstream in(all);
        ASSERT_EQ(core::readResultsJsonl(in).records.size(), 3u);
    }

    const std::string nested300 =
        std::string(300, '[') + "1" + std::string(300, ']');
    std::string objects300 = "1";
    for (int i = 0; i < 300; ++i)
        objects300 = "{\"k\": " + objects300 + "}";
    const std::vector<std::string> numbers = {
        "1e400", "-1e400", "-1", "-0", "1.5", "1e-400", "4294967296",
        "18446744073709551615", "18446744073709551616",
        "-9223372036854775809", "99999999999999999999999999999999",
        "1e", "--1", "01", nested300, objects300};
    const std::vector<std::string> schemas = {"4", "7", "\"6\""};

    enum Kind { Truncate, FlipByte, Number, DuplicateKey, Schema, NumKinds };
    int parsed = 0;
    int thrown = 0;
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
        sim::Random rng(seed);
        for (int iter = 0; iter < 150; ++iter) {
            const std::size_t target = rng.range(0, valid.size() - 1);
            std::string line = valid[target];
            line.pop_back(); // the newline goes back on below
            const auto kind = static_cast<Kind>(rng.range(0, NumKinds - 1));
            bool must_throw = false;
            switch (kind) {
              case Truncate:
                line.resize(rng.range(0, line.size() - 1));
                break;
              case FlipByte: {
                char c;
                do {
                    c = static_cast<char>(rng.range(0, 255));
                } while (c == '\n');
                line[rng.range(0, line.size() - 1)] = c;
                break;
              }
              case Number: {
                const auto spans = numberSpans(line);
                const auto [at, len] = spans[rng.range(0, spans.size() - 1)];
                line.replace(at, len,
                             numbers[rng.range(0, numbers.size() - 1)]);
                break;
              }
              case DuplicateKey: {
                const auto starts = keyStarts(line);
                const std::size_t at =
                    starts[rng.range(0, starts.size() - 1)];
                const std::size_t colon = line.find(':', at);
                line.insert(at, line.substr(at, colon - at) + ": 0, ");
                must_throw = true;
                break;
              }
              case Schema:
                line.replace(line.find("6"), 1,
                             schemas[rng.range(0, schemas.size() - 1)]);
                must_throw = true;
                break;
              case NumKinds:
                break;
            }

            std::string stream;
            for (std::size_t i = 0; i < valid.size(); ++i)
                stream += i == target ? line + "\n" : valid[i];
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " iter " << iter
                         << " kind " << kind << ": " << line);
            std::istringstream in(stream);
            try {
                const core::JsonlFile file = core::readResultsJsonl(in);
                EXPECT_FALSE(must_throw);
                EXPECT_LE(file.records.size(), valid.size());
                ++parsed;
            } catch (const std::runtime_error &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find("results jsonl line " +
                                   std::to_string(target + 1) + ":"),
                          std::string::npos)
                    << msg;
                ++thrown;
            }
        }
    }
    // Both outcomes occur: the mutations are neither all fatal nor all
    // harmless.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(thrown, 0);
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
