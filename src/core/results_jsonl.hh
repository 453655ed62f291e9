/**
 * @file
 * Streaming campaign results: one self-contained JSON record per line,
 * and the engine's only results reader.
 *
 * The campaign document (results_json.hh) is written once, at the end,
 * by whoever holds the whole ResultSet, and is never read back. The
 * JSONL stream is what the engine reads: resume, shard merge and
 * perfbench's round-trip check all parse it. Each completed point
 * appends and flushes
 *
 *   {"schema": 6, "point_key": "<16 hex>", "label": "...",
 *    "config": {...}, "result": {...}}\n
 *
 * The label/config/result fields are byte-for-byte the record the
 * document carries (results_record.hh). Streams began at schema 5, so
 * the reader accepts per-line tokens 5 and 6; v6 added only the
 * optional "reorder" block and flows.flow_learn_drops. The point_key
 * is the canonical config hash (point_key.hh), never zero: resume
 * matches records to points by key, and shard merges reassemble a
 * ResultSet by key.
 *
 * Crash safety: an interrupted writer leaves at most one partial
 * final line. The reader tolerates exactly that — an unterminated,
 * unparseable tail is dropped (and flagged) instead of failing the
 * whole file; a malformed *interior* line is still a hard error. The
 * appender repairs such a tail (truncates it) before appending, so a
 * resumed shard keeps a well-formed stream.
 */

#ifndef NETAFFINITY_CORE_RESULTS_JSONL_HH
#define NETAFFINITY_CORE_RESULTS_JSONL_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/campaign.hh"
#include "src/core/results_json.hh"

namespace na::core {

/** One label/config/result record parsed back from a stream. */
struct JsonRunRecord
{
    std::string label;
    /** Workload kind token ("ttcp", "mix"). */
    std::string workload = "ttcp";
    /** ttcp direction; meaningless when workload != "ttcp". */
    workload::TtcpMode mode = workload::TtcpMode::Transmit;
    std::uint32_t msgSize = 0;
    AffinityMode affinity = AffinityMode::None;
    int connections = 0;
    int cpus = 0;
    std::uint64_t seed = 0;
    /** Steering policy token ("static", "rss", "flow_director"). */
    std::string steering = "static";
    /** RX queues per NIC the point was provisioned with. */
    int queues = 1;
    /** Fault-plan label ("off" when the point ran fault-free). */
    std::string faults = "off";
    /** Result fields the schema carries (bins stay zeroed). */
    RunResult result;
};

/** One parsed JSONL line. */
struct JsonlRecord
{
    /** Canonical point key (never 0). */
    std::uint64_t key = 0;
    /** Per-line schema token (5 or 6). */
    int schemaVersion = 0;
    /** The label/config/result payload. */
    JsonRunRecord rec;
};

/** A parsed JSONL stream. */
struct JsonlFile
{
    /** Records in file order (duplicates by key preserved). */
    std::vector<JsonlRecord> records;
    /** True when an unterminated partial final line was dropped. */
    bool truncatedTail = false;

    /**
     * @return record index of the *last* occurrence of every key —
     *         resume semantics: a re-run point's newer record
     *         supersedes its older one.
     */
    std::unordered_map<std::uint64_t, std::size_t> latestByKey() const;
};

/** Serialize one record (with trailing newline) to @p os. */
void writeJsonlRecord(std::ostream &os, const CampaignPoint &point,
                      const RunResult &result, std::uint64_t key);

/**
 * Parse a JSONL stream. Unterminated unparseable tail -> dropped and
 * flagged; any other malformed line or field, bad or zero point key,
 * or schema token other than 5 or 6 -> std::runtime_error naming the
 * line.
 */
JsonlFile readResultsJsonl(std::istream &is);

/** readResultsJsonl() on @p path. @throws when the file cannot be
 *  opened (a typo'd --resume path must not look like an empty
 *  campaign). */
JsonlFile readResultsJsonlFile(const std::string &path);

/**
 * Crash-safe line appender. Opening repairs a partial final line left
 * by a crashed writer (truncates it), then appends; every append
 * flushes, so a later crash again loses at most the in-flight line.
 */
class JsonlAppender
{
  public:
    explicit JsonlAppender(const std::string &path);

    bool ok() const { return static_cast<bool>(out); }
    const std::string &path() const { return filePath; }

    /** @return false on I/O failure (stream is left failed). */
    bool append(const CampaignPoint &point, const RunResult &result,
                std::uint64_t key);

  private:
    std::string filePath;
    std::ofstream out;
};

/**
 * Merge per-shard streams: within a file the latest record per key
 * wins (resume re-runs append); across files a shared key is a
 * partitioning bug and throws.
 * @return surviving records, shard-major, in file order.
 */
std::vector<JsonlRecord>
mergeShardFiles(const std::vector<JsonlFile> &shards);

/**
 * Rebuild a submission-ordered ResultSet from streamed records: the
 * inverse of a sharded campaign. Applies the options' seed derivation
 * to @p points, computes their keys, and fills every slot from the
 * last record carrying that key.
 *
 * @throws std::runtime_error listing the labels of any points with no
 *         record (an incomplete merge must not silently produce
 *         zeroed rows).
 */
ResultSet assembleResultSet(std::vector<CampaignPoint> points,
                            const Campaign::Options &options,
                            const std::vector<JsonlRecord> &records,
                            int threads_used);

} // namespace na::core

#endif // NETAFFINITY_CORE_RESULTS_JSONL_HH
