/**
 * @file
 * Rounding of non-negative doubles without libm calls.
 *
 * The charge path rounds a handful of non-negative expectations per
 * charge (stall cycles, cycle totals, fractional event draws). These
 * integer forms give exactly what std::floor and std::llround give on
 * that domain, but compile to a truncating convert and a subtract.
 */

#ifndef NETAFFINITY_SIM_ROUND_HH
#define NETAFFINITY_SIM_ROUND_HH

#include <cstdint>

namespace na::sim {

/**
 * @return x - std::floor(x) for finite 0 <= x < 2^63.
 *
 * The subtraction is exact: t = trunc(x) is 0 when x < 1 and otherwise
 * satisfies t <= x < 2t, so Sterbenz's lemma applies.
 */
inline double
fracPart(double x)
{
    return x - static_cast<double>(static_cast<std::int64_t>(x));
}

/**
 * @return std::llround(x) for finite 0 <= x < 2^63: the nearest
 *         integer, halves rounded up (away from zero).
 */
inline std::uint64_t
roundHalfUp(double x)
{
    const auto t = static_cast<std::int64_t>(x);
    return static_cast<std::uint64_t>(t) +
           (x - static_cast<double>(t) >= 0.5);
}

} // namespace na::sim

#endif // NETAFFINITY_SIM_ROUND_HH
