/**
 * @file
 * Environment-variable lookup helpers.
 *
 * Every binary in the tree reads the same family of NA_* knobs
 * (NA_CAMPAIGN_THREADS, NA_CAMPAIGN_JSON, NA_BENCH_FAST, ...) and each
 * call site used to hand-roll its own getenv + parse. This header is
 * the single implementation:
 *
 *  - env::str()      set-or-absent string lookup
 *  - env::intValue() strict integer parse (std::from_chars, whole
 *                    string, no locale) that *throws* on garbage
 *                    instead of silently reading "abc" as 0
 *  - env::flag()     boolean knob: set, non-empty, and not "0"
 *  - env::number<T>() the same strict parse for any text, e.g. a
 *                    command-line flag value
 */

#ifndef NETAFFINITY_CORE_ENV_HH
#define NETAFFINITY_CORE_ENV_HH

#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

namespace na::core::env {

/**
 * Throw number()'s error: names @p what and @p text.
 * @param overflow the text is a number, but out of range for the type
 */
[[noreturn]] void badNumber(const char *what, const char *text,
                            bool integral, bool overflow);

/**
 * @return all of @p text parsed as a T (an integer or floating type)
 *         by std::from_chars: no locale, no leading whitespace or '+',
 *         no trailing junk, and for floating types a finite value.
 * @throws std::runtime_error naming @p what (a variable or flag name)
 *         and @p text when any of that fails, or the value does not
 *         fit T ("-1" is not an unsigned).
 */
template <typename T>
T
number(const char *what, const char *text)
{
    static_assert(std::is_arithmetic_v<T>);
    const char *end = text + std::strlen(text);
    T out{};
    const auto [ptr, ec] = std::from_chars(text, end, out);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(out);
    if (!ok) {
        badNumber(what, text, std::is_integral_v<T>,
                  ec == std::errc::result_out_of_range);
    }
    return out;
}

/** @return the raw value of @p name, or nullptr when unset. */
const char *raw(const char *name);

/** @return the value of @p name, or nullopt when unset. */
std::optional<std::string> str(const char *name);

/**
 * @return the integer value of @p name, or nullopt when unset.
 * @throws std::runtime_error (naming the variable and the offending
 *         text) when the value is empty, has trailing junk ("4x"),
 *         is not a number at all ("abc"), or overflows a long long.
 *
 * Negative values parse successfully — whether they are meaningful is
 * the caller's policy (Campaign::resolveThreads rejects them).
 */
std::optional<long long> intValue(const char *name);

/**
 * @return true when @p name is set to a non-empty value other than
 *         "0". Matches the long-standing NA_BENCH_FAST convention:
 *         unset, empty, and "0" all mean off.
 */
bool flag(const char *name);

} // namespace na::core::env

#endif // NETAFFINITY_CORE_ENV_HH
