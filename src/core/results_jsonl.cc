#include "src/core/results_jsonl.hh"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "src/core/json.hh"
#include "src/core/point_key.hh"
#include "src/core/results_record.hh"
#include "src/sim/logging.hh"

namespace na::core {

namespace {

/** Parse one complete line into a record. @throws on any defect. */
JsonlRecord
parseLine(const std::string &line, std::size_t line_no)
{
    json::Value v;
    try {
        v = json::parse(line);
    } catch (const std::exception &e) {
        throw std::runtime_error(sim::format(
            "results jsonl line %zu: %s", line_no, e.what()));
    }
    if (!v.isObject()) {
        throw std::runtime_error(sim::format(
            "results jsonl line %zu: record is not an object",
            line_no));
    }
    JsonlRecord rec;
    try {
        rec.schemaVersion = v.integer<int>("schema");
        if (rec.schemaVersion < 2 ||
            rec.schemaVersion > resultsSchemaVersion) {
            throw std::runtime_error(sim::format(
                "unsupported schema token %d (this reader understands "
                "2 through %d)",
                rec.schemaVersion, resultsSchemaVersion));
        }
        rec.key = parsePointKey(v.str("point_key"));
        rec.rec = detail::parsePointRecord(v);
    } catch (const std::exception &e) {
        throw std::runtime_error(sim::format(
            "results jsonl line %zu: %s", line_no, e.what()));
    }
    return rec;
}

} // namespace

std::unordered_map<std::uint64_t, std::size_t>
JsonlFile::latestByKey() const
{
    std::unordered_map<std::uint64_t, std::size_t> latest;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].key != 0)
            latest[records[i].key] = i;
    }
    return latest;
}

void
writeJsonlRecord(std::ostream &os, const CampaignPoint &point,
                 const RunResult &result, std::uint64_t key)
{
    os << "{\"schema\": " << resultsSchemaVersion
       << ", \"point_key\": \"" << formatPointKey(key) << "\", ";
    detail::writePointRecord(os, detail::recordView(point, result));
    os << "}\n";
}

JsonlFile
readResultsJsonl(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    JsonlFile file;
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const std::string line =
            text.substr(pos, terminated ? nl - pos : std::string::npos);
        pos = terminated ? nl + 1 : text.size();
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (terminated) {
            file.records.push_back(parseLine(line, line_no));
            continue;
        }
        // Unterminated tail: a crashed writer's partial line. Accept
        // it only if it happens to be complete and well-formed (a
        // writer that simply omitted the final newline); otherwise
        // drop it — that is the crash-tolerance contract.
        try {
            file.records.push_back(parseLine(line, line_no));
        } catch (const std::exception &) {
            file.truncatedTail = true;
        }
    }
    return file;
}

JsonlFile
readResultsJsonlFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error(sim::format(
            "results jsonl: cannot open '%s'", path.c_str()));
    }
    return readResultsJsonl(in);
}

JsonlAppender::JsonlAppender(const std::string &path) : filePath(path)
{
    // Repair a crashed writer's partial final line before appending:
    // without this, the first appended record would glue onto the
    // partial tail and corrupt an *interior* line, which the reader
    // correctly refuses.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec && size > 0) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string &text = buf.str();
        const std::size_t last_nl = text.rfind('\n');
        const std::uintmax_t keep =
            last_nl == std::string::npos ? 0 : last_nl + 1;
        if (keep < size)
            std::filesystem::resize_file(path, keep, ec);
    }
    out.open(path, std::ios::binary | std::ios::app);
}

bool
JsonlAppender::append(const CampaignPoint &point,
                      const RunResult &result, std::uint64_t key)
{
    if (!out)
        return false;
    writeJsonlRecord(out, point, result, key);
    out.flush();
    return static_cast<bool>(out);
}

std::vector<JsonlRecord>
mergeShardFiles(const std::vector<JsonlFile> &shards)
{
    std::vector<JsonlRecord> merged;
    // key -> shard index that contributed it (cross-shard duplicates
    // mean the partitioning is broken; refuse rather than guess).
    std::unordered_map<std::uint64_t, std::size_t> owner;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto latest = shards[s].latestByKey();
        for (std::size_t i = 0; i < shards[s].records.size(); ++i) {
            const JsonlRecord &r = shards[s].records[i];
            if (r.key != 0) {
                auto it = latest.find(r.key);
                if (it != latest.end() && it->second != i)
                    continue; // superseded within this shard
                auto [oit, inserted] = owner.emplace(r.key, s);
                if (!inserted) {
                    throw std::runtime_error(sim::format(
                        "results jsonl merge: point key %s ('%s') "
                        "appears in shard files %zu and %zu — the "
                        "shards do not partition the sweep",
                        formatPointKey(r.key).c_str(),
                        r.rec.label.c_str(), oit->second, s));
                }
            }
            merged.push_back(r);
        }
    }
    return merged;
}

ResultSet
assembleResultSet(std::vector<CampaignPoint> points,
                  const Campaign::Options &options,
                  const std::vector<JsonlRecord> &records,
                  int threads_used)
{
    Campaign::applyPointSeeds(points, options);
    const std::vector<std::uint64_t> keys = Campaign::pointKeys(points);

    std::unordered_map<std::uint64_t, std::size_t> latest;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].key != 0)
            latest[records[i].key] = i;
    }

    std::vector<RunResult> results(points.size());
    std::string missing;
    for (std::size_t i = 0; i < points.size(); ++i) {
        auto it = latest.find(keys[i]);
        if (it == latest.end()) {
            if (!missing.empty())
                missing += ", ";
            missing += "'" + points[i].label + "'";
            continue;
        }
        results[i] = records[it->second].rec.result;
    }
    if (!missing.empty()) {
        throw std::runtime_error(
            "results jsonl: no record for point(s) " + missing +
            " — merge is incomplete");
    }

    ResultSet rs(std::move(points), std::move(results));
    rs.campaignSeed = options.seed;
    rs.threadsUsed = threads_used;
    return rs;
}

void
writeMonolithicFromRecords(std::ostream &os,
                           std::uint64_t campaign_seed, int threads,
                           const std::vector<JsonlRecord> &records)
{
    os << "{\n";
    os << "  \"schema_version\": " << resultsSchemaVersion << ",\n";
    os << "  \"campaign_seed\": " << campaign_seed << ",\n";
    os << "  \"threads\": " << threads << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        os << (i ? ",\n    {" : "\n    {");
        detail::writePointRecord(os, detail::recordView(records[i].rec));
        os << "}";
    }
    os << "\n  ]\n}\n";
}

std::vector<JsonlRecord>
recordsFromMonolithic(const JsonCampaign &campaign)
{
    std::vector<JsonlRecord> records;
    records.reserve(campaign.points.size());
    for (const JsonRunRecord &rec : campaign.points) {
        JsonlRecord r;
        r.key = 0;
        r.schemaVersion = resultsSchemaVersion;
        r.rec = rec;
        records.push_back(std::move(r));
    }
    return records;
}

} // namespace na::core
