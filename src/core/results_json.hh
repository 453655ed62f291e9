/**
 * @file
 * Campaign result export as one JSON document (campaign_results.json).
 *
 * The document is write-only: NA_CAMPAIGN_JSON, `campaignctl merge`
 * and `affinity_sweep --json` produce it for people and external
 * tools, and nothing in the engine reads it back. Resume, shard merge
 * and every round-trip check read the JSONL stream (results_jsonl.hh),
 * whose lines carry the same per-point record (results_record.hh).
 *
 * Schema (version 6):
 *
 *   {
 *     "schema_version": 6,
 *     "campaign_seed": 42,
 *     "threads": 4,
 *     "points": [
 *       {
 *         "label": "TX 65536B Full Aff",
 *         "config": {
 *           "workload": "ttcp" | "mix",
 *           "mode": "tx" | "rx" | "-",    // "-" for non-ttcp points
 *           "msg_size": 65536,            // 0 for non-ttcp points
 *           "affinity": "none" | "irq" | "proc" | "full",
 *           "connections": 8,
 *           "cpus": 2,
 *           "seed": 1234567,
 *           "steering": "static" | "rss" | "flow_director",
 *           "queues": 1,
 *           "faults": "off" | <FaultPlan label>
 *         },
 *         "result": {
 *           "seconds": 0.05,
 *           "payload_bytes": 123456,
 *           "throughput_mbps": 1975.3,
 *           "cpu_util": 0.98,
 *           "ghz_per_gbps": 1.42,
 *           "util_per_cpu": [0.99, 0.97],
 *           "irqs": 1000, "ipis": 12,
 *           "migrations": 3, "context_switches": 450,
 *           "tx_drops_ring_full": 0, "rx_drops_ring_full": 0,
 *           "rx_frames_per_queue": [9000, 8800],
 *           "failure": {              // only for degraded points
 *             "reason": "...full untruncated message...",
 *             "config_summary": "TX 4096B ...",
 *             "ticks_reached": 4000000, "attempts": 2
 *           },
 *           "flows": {                // only for mix-workload points
 *             "started": 10000, "completed": 10000,
 *             "accepted": 10000, "retired": 10000,
 *             "accept_drops_backlog": 0, "accept_drops_pool": 0,
 *             "unmatched_frames": 0, "deferred_arrivals": 120,
 *             "flow_migrations": 5, "flow_learns": 9000,
 *             "flow_learn_drops": 0,
 *             "ooo_arrivals": 3, "live_connections": 0,
 *             "size_buckets": [
 *               {"max_bytes": 4095, "flows": 12, "bytes": 40000}, ...
 *             ]
 *           },
 *           "reorder": {              // only when reordering occurred
 *             "ooo_arrivals": 3, "ooo_windows": 2,
 *             "ooo_window_ticks": 81000,
 *             "ooo_depth_hist": [3, 0, 0, 0, 0, 0, 0, 0],
 *             "dup_ack_bursts": 2, "retransmits": 1,
 *             "spurious_retransmits": 1, "sender_hops": 40
 *           },
 *           "intervals": {            // only when interval stats ran
 *             "interval_ticks": 200000,
 *             "num_cpus": 2, "num_queues": 1,
 *             "windows": [
 *               {"start": 0, "end": 200000,
 *                "rx_frames_per_queue": [312],
 *                "deltas": [ ...cpu-major bin/event flat matrix... ]},
 *               ...
 *             ]
 *           },
 *           "event_totals": {         // one entry per prof::Event
 *             "cycles": ..., "instructions": ..., ...
 *           }
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * Doubles are printed with std::to_chars (shortest round-trip form),
 * so the text is locale-independent and a JSONL reader gets every
 * value back bit-exactly.
 */

#ifndef NETAFFINITY_CORE_RESULTS_JSON_HH
#define NETAFFINITY_CORE_RESULTS_JSON_HH

#include <iosfwd>
#include <string>

#include "src/core/campaign.hh"

namespace na::core {

/** Current results schema version (document and JSONL records). */
constexpr int resultsSchemaVersion = 6;

/**
 * Serialize a completed campaign to the schema above. Each point is
 * emitted as one compact line inside the pretty-printed top level —
 * the record text a results JSONL line carries after its schema and
 * point_key fields.
 */
void writeResultsJson(std::ostream &os, const ResultSet &results);

/** writeResultsJson() to @p path. @return false on I/O failure. */
bool writeResultsJsonFile(const std::string &path,
                          const ResultSet &results);

} // namespace na::core

#endif // NETAFFINITY_CORE_RESULTS_JSON_HH
