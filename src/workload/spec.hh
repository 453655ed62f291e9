/**
 * @file
 * Tagged workload selection for SystemConfig.
 *
 * A System runs exactly one workload kind; the Spec variant makes that
 * choice explicit instead of a pile of parallel optional fields. The
 * paper's single-flow ttcp remains the default alternative (and keeps
 * its config byte layout), while FlowMix provisions the many-flow
 * listen/accept plane: one FlowMixApp server per NIC fed by a
 * FlowClientPeer generating churning, heavy-tailed flows.
 */

#ifndef NETAFFINITY_WORKLOAD_SPEC_HH
#define NETAFFINITY_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "src/net/flow_client.hh"
#include "src/workload/ttcp.hh"

namespace na::workload {

/** The churn mix; it lives in net:: because the client peer reads it. */
using FlowMixConfig = net::FlowMixConfig;

/** Discriminator for Spec (stable tokens in results_json v5). */
enum class Kind
{
    Ttcp,
    FlowMix,
};

/** The one workload a System runs. */
using Spec = std::variant<TtcpConfig, FlowMixConfig>;

inline Kind
kindOf(const Spec &spec)
{
    return std::holds_alternative<TtcpConfig>(spec) ? Kind::Ttcp
                                                    : Kind::FlowMix;
}

/** Stable serialization token ("ttcp" / "mix"). */
std::string_view kindToken(Kind kind);

/** Inverse of kindToken; throws std::runtime_error on unknown. */
Kind kindFromToken(std::string_view token);

/**
 * Sweep-point label suffix, e.g. " wl:mix(z=1.2,n=4096)". Empty for
 * ttcp so existing labels stay byte-identical.
 */
std::string specLabel(const Spec &spec);

/**
 * Reject inconsistent parameter mixes.
 * @throws std::runtime_error describing the first violation.
 */
void validateSpec(const Spec &spec);

} // namespace na::workload

#endif // NETAFFINITY_WORKLOAD_SPEC_HH
