/**
 * @file
 * Internal record-level JSON for campaign points: the one codec
 * behind the campaign document (results_json, write-only) and the
 * JSONL stream (results_jsonl, written and read back).
 *
 * Both containers carry the same per-point payload:
 *
 *   "label": "...", "config": {...}, "result": {...}
 *
 * writePointRecord() emits it from a live (CampaignPoint, RunResult)
 * pair. parsePointRecord() is the only results parser in the engine;
 * every rule the writer follows (util_per_cpu holds exactly `cpus`
 * numbers, ooo_depth_hist exactly 8 integers, tokens name a known
 * workload, mode, affinity and steering policy) is a check it makes.
 *
 * This header is internal to src/core; link against results_json.cc.
 */

#ifndef NETAFFINITY_CORE_RESULTS_RECORD_HH
#define NETAFFINITY_CORE_RESULTS_RECORD_HH

#include <iosfwd>

#include "src/core/campaign.hh"
#include "src/core/json.hh"
#include "src/core/results_jsonl.hh"

namespace na::core::detail {

/**
 * Emit `"label": ..., "config": {...}, "result": {...}` (no
 * surrounding braces) as one compact line-safe run of JSON — the
 * caller wraps it in its container object.
 */
void writePointRecord(std::ostream &os, const CampaignPoint &point,
                      const RunResult &result);

/**
 * Parse one `{label, config, result}` object of schema 5 or 6.
 * @throws std::runtime_error naming the offending field.
 */
JsonRunRecord parsePointRecord(const json::Value &pv);

} // namespace na::core::detail

#endif // NETAFFINITY_CORE_RESULTS_RECORD_HH
