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

/** Comma-separated fault knobs of one wire direction, in field order. */
std::string
faultDirectionText(const sim::FaultDirection &d)
{
    return dblText(d.lossProb) + "," + dblText(d.geGoodToBad) + "," +
           dblText(d.geBadToGood) + "," + dblText(d.geBadLoss) + "," +
           dblText(d.corruptProb) + "," + dblText(d.dupProb) + "," +
           dblText(d.reorderProb) + "," +
           std::to_string(d.reorderDelayTicks);
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
    // Zero is never a key, so the JSONL reader can reject a zeroed
    // point_key as corrupt.
    return h ? h : 0x100000001b3ULL;
}

std::string
canonicalPointText(const SystemConfig &config,
                   const RunSchedule &schedule)
{
    // summary() carries the sweep-axis fields: workload (mode/size or
    // mix spec label), affinity, connections, cpus, steering kind and
    // queue count, IRQ rotation, and the fault-plan label (its tag).
    // Everything below extends it with the identity-relevant fields
    // summary() omits. The "|k=v" framing keeps fields unambiguous even
    // where a label could contain spaces.
    std::string t = config.summary();
    // Each piece is appended on its own: `"lit" + std::to_string(...)`
    // temporaries make g++ 12 at -O3 warn of an overlapping memcpy.
    auto add = [&t](const char *label, const std::string &value) {
        t += label;
        t += value;
    };
    add("|seed=", std::to_string(config.platform.seed));
    // The clock and the wire are constants of the modeled platform,
    // the wire has no loss knob of its own (loss comes only from the
    // fault plan), a run always has one event queue and one measurement
    // window, but all these fields stay in the text so keys of existing
    // JSONL stores and perfbench's references still match.
    add("|freq=", dblText(cpu::PlatformConfig::freqHz));
    add("|wire=", dblText(SystemConfig::wireBitsPerSec));
    add(",", std::to_string(SystemConfig::wireLatencyTicks));
    t += ",0|lanes=1";
    add("|iv=", dblText(config.statsIntervalUs));
    add("|sched=", std::to_string(schedule.establishDeadline));
    add(",", std::to_string(schedule.warmup));
    add(",", std::to_string(schedule.measure));
    add(",", std::to_string(RunSchedule::maxWindows));
    add(",", dblText(RunSchedule::convergeTolerance));
    // A disabled plan adds nothing, so fault-free keys are unchanged.
    if (const sim::FaultPlan &f = config.faults; f.enabled()) {
        add("|faults=", faultDirectionText(f.toPeer));
        add(";", faultDirectionText(f.toSut));
        add(";", std::to_string(f.linkFlapPeriodTicks));
        add(",", std::to_string(f.linkFlapDownTicks));
        add(",", std::to_string(f.rxStallPeriodTicks));
        add(",", std::to_string(f.rxStallTicks));
        add(",", dblText(f.irqLossProb));
    }
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

void
PointKeyRegistry::add(std::uint64_t key, std::string canonical_text)
{
    auto it = texts.find(key);
    if (it == texts.end()) {
        texts.emplace(key, std::move(canonical_text));
        return;
    }
    if (it->second == canonical_text)
        return;
    throw std::runtime_error(sim::format(
        "point key collision: %s identifies both\n  '%s'\nand\n"
        "  '%s'\n— refusing to dedupe/resume across it",
        formatPointKey(key).c_str(), it->second.c_str(),
        canonical_text.c_str()));
}

} // namespace na::core
