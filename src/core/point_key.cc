#include "src/core/point_key.hh"

#include <charconv>
#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::core {

namespace {

/** Locale-independent double formatting (shortest round trip). */
std::string
dblText(double v)
{
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "?";
    return std::string(buf, ptr);
}

} // namespace

std::uint64_t
hashCanonicalText(const std::string &text)
{
    // FNV-1a, 64-bit: simple, endian-free, stable across platforms.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    // Zero is reserved as "no key" (converted monolithic records).
    return h ? h : 0x100000001b3ULL;
}

std::string
canonicalPointText(const SystemConfig &config,
                   const RunSchedule &schedule)
{
    // summary() carries the sweep-axis fields: workload (mode/size or
    // mix spec label), affinity, connections, cpus, steering kind and
    // queue count, IRQ rotation, and the fault-plan label. Everything
    // below extends it with the identity-relevant fields summary()
    // omits. The "|k=v" framing keeps fields unambiguous even where a
    // label could contain spaces.
    std::string t = config.summary();
    t += "|seed=" + std::to_string(config.platform.seed);
    t += "|freq=" + dblText(config.platform.freqHz);
    t += "|wire=" + dblText(config.wireBitsPerSec);
    t += "," + std::to_string(config.wireLatencyTicks);
    t += "," + dblText(config.wireLossProb);
    // A run always has one event queue, but the field stays in the
    // text so keys of existing JSONL stores still match on resume.
    t += "|lanes=1";
    t += "|iv=" + dblText(config.statsIntervalUs);
    t += "|sched=" + std::to_string(schedule.establishDeadline);
    t += "," + std::to_string(schedule.warmup);
    t += "," + std::to_string(schedule.measure);
    t += "," + std::to_string(schedule.maxWindows);
    t += "," + dblText(schedule.convergeTolerance);
    return t;
}

std::uint64_t
pointKeyOf(const SystemConfig &config, const RunSchedule &schedule)
{
    return hashCanonicalText(canonicalPointText(config, schedule));
}

std::string
formatPointKey(std::uint64_t key)
{
    char buf[17];
    for (int i = 15; i >= 0; --i) {
        buf[i] = "0123456789abcdef"[key & 0xf];
        key >>= 4;
    }
    buf[16] = '\0';
    return std::string(buf, 16);
}

std::uint64_t
parsePointKey(const std::string &text)
{
    if (text.size() != 16) {
        throw std::runtime_error(sim::format(
            "point key '%s' is not 16 hex digits", text.c_str()));
    }
    std::uint64_t key = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + 16, key, 16);
    if (ec != std::errc() || ptr != text.data() + 16) {
        throw std::runtime_error(sim::format(
            "point key '%s' is not 16 hex digits", text.c_str()));
    }
    return key;
}

PointKeyRegistry::Entry
PointKeyRegistry::add(std::uint64_t key, std::string canonical_text,
                      std::size_t index)
{
    auto it = entries.find(key);
    if (it == entries.end()) {
        entries.emplace(key, Slot{std::move(canonical_text), index});
        return Entry{index, false};
    }
    if (it->second.text != canonical_text) {
        throw std::runtime_error(sim::format(
            "point key collision: %s identifies both\n  '%s'\nand\n"
            "  '%s'\n— refusing to dedupe/resume across it",
            formatPointKey(key).c_str(), it->second.text.c_str(),
            canonical_text.c_str()));
    }
    return Entry{it->second.firstIndex, true};
}

} // namespace na::core
