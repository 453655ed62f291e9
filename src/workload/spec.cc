#include "src/workload/spec.hh"

#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::workload {

std::string_view
kindToken(Kind kind)
{
    switch (kind) {
      case Kind::Ttcp:
        return "ttcp";
      case Kind::FlowMix:
        return "mix";
    }
    return "?";
}

Kind
kindFromToken(std::string_view token)
{
    if (token == "ttcp")
        return Kind::Ttcp;
    if (token == "mix")
        return Kind::FlowMix;
    throw std::runtime_error("unknown workload kind token: " +
                             std::string(token));
}

std::string
specLabel(const Spec &spec)
{
    if (kindOf(spec) == Kind::Ttcp)
        return "";
    const auto &mix = std::get<FlowMixConfig>(spec);
    // The hop suffix appears only when the migration driver is armed,
    // keeping every pre-existing label byte-identical.
    const std::string hop =
        mix.senderHopTicks > 0
            ? sim::format(",hop=%llu",
                          (unsigned long long)mix.senderHopTicks)
            : "";
    return sim::format(" wl:mix(z=%g,n=%d%s)", mix.flowSizeShape,
                       mix.maxConcurrentFlows, hop.c_str());
}

void
validateSpec(const Spec &spec)
{
    if (kindOf(spec) == Kind::Ttcp) {
        if (std::get<TtcpConfig>(spec).msgSize == 0) {
            throw std::runtime_error(
                "SystemConfig: ttcp.msgSize must be nonzero (ttcp would "
                "spin on empty read()/write() calls)");
        }
        return;
    }
    const auto &mix = std::get<FlowMixConfig>(spec);
    if (mix.maxConcurrentFlows <= 0) {
        throw std::runtime_error(
            "SystemConfig: mix.maxConcurrentFlows must be > 0");
    }
    if (mix.maxConcurrentFlows > 64512) {
        throw std::runtime_error(
            "SystemConfig: mix.maxConcurrentFlows exceeds the ephemeral "
            "port space (64512 per client box)");
    }
    if (mix.flowSizeMin == 0 || mix.flowSizeMax < mix.flowSizeMin) {
        throw std::runtime_error(
            "SystemConfig: mix flow size range is empty or zero-based");
    }
    if (mix.meanInterarrivalTicks <= 0.0) {
        throw std::runtime_error(
            "SystemConfig: mix.meanInterarrivalTicks must be > 0");
    }
    if (mix.stormSize <= 0) {
        throw std::runtime_error(
            "SystemConfig: mix.stormSize must be > 0");
    }
    if (mix.listenBacklog <= 0) {
        throw std::runtime_error(
            "SystemConfig: mix.listenBacklog must be > 0");
    }
}

} // namespace na::workload
