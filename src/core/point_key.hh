/**
 * @file
 * Canonical campaign-point identity: the resume/shard/dedupe key.
 *
 * A PointKey is a stable 64-bit hash (FNV-1a) over a canonical text
 * serialization of everything that determines a point's result:
 * SystemConfig::summary()-grade config fields, the platform seed, the
 * wire parameters, the observability knob, and the RunSchedule.
 * Two points with the same key produce bit-identical results, so:
 *
 *  - resumable sweeps skip points whose key already has a successful
 *    record in a results JSONL stream,
 *  - shard merges match records back to submission slots by key, and
 *  - campaigns dedupe identical points (same key -> run once).
 *
 * Keys are process- and platform-stable: the canonical text is built
 * with locale-independent formatting (std::to_chars for doubles) and
 * the hash is fixed-width arithmetic, so a key computed by a shard
 * worker on one machine matches the merge step on another.
 *
 * The canonical text deliberately covers the fields the results
 * schema round-trips plus the run schedule — not every last TcpConfig
 * and NicConfig knob. Sweeps vary configuration through the covered
 * axes; if an experiment hand-edits a field outside them, it should
 * not reuse an old resume file (documented in DESIGN.md §15).
 *
 * PointKeyRegistry is the collision checker: it remembers the
 * canonical text behind every key it has seen, flags identical points
 * as duplicates, and throws on the (astronomically unlikely, but
 * silently catastrophic if ignored) event of two different texts
 * hashing to the same key.
 */

#ifndef NETAFFINITY_CORE_POINT_KEY_HH
#define NETAFFINITY_CORE_POINT_KEY_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/core/experiment.hh"
#include "src/core/system.hh"

namespace na::core {

/** FNV-1a 64-bit over @p text — the PointKey hash primitive. */
std::uint64_t hashCanonicalText(const std::string &text);

/**
 * Canonical, locale-independent serialization of the fields that
 * identify a point. Equal texts <=> interchangeable results.
 */
std::string canonicalPointText(const SystemConfig &config,
                               const RunSchedule &schedule);

/** hashCanonicalText(canonicalPointText(config, schedule)). */
std::uint64_t pointKeyOf(const SystemConfig &config,
                         const RunSchedule &schedule);

/** @return the key as a fixed-width 16-digit lowercase hex string. */
std::string formatPointKey(std::uint64_t key);

/**
 * Inverse of formatPointKey.
 * @throws std::runtime_error on anything but 16 hex digits.
 */
std::uint64_t parsePointKey(const std::string &text);

/**
 * Key -> canonical-text registry with collision detection and
 * duplicate-point identification.
 */
class PointKeyRegistry
{
  public:
    struct Entry
    {
        /** Index passed with the first registration of this key. */
        std::size_t firstIndex = 0;
        /** True if the key was already registered (identical text). */
        bool duplicate = false;
    };

    /**
     * Register @p key (hashing @p canonical_text) for point
     * @p index.
     * @throws std::runtime_error if the key is already registered
     *         with a *different* canonical text (a real hash
     *         collision — the caller must not dedupe or resume
     *         across it).
     */
    Entry add(std::uint64_t key, std::string canonical_text,
              std::size_t index);

    std::size_t size() const { return entries.size(); }

  private:
    struct Slot
    {
        std::string text;
        std::size_t firstIndex;
    };
    std::unordered_map<std::uint64_t, Slot> entries;
};

} // namespace na::core

#endif // NETAFFINITY_CORE_POINT_KEY_HH
