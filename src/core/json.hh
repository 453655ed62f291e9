/**
 * @file
 * Minimal reusable JSON value + recursive-descent parser.
 *
 * Grown out of results_json.cc so that other emitters (the Chrome
 * trace-event timeline, the interval-stats exports) and their
 * validation tests can parse what they write without a third-party
 * dependency. Numbers are parsed with std::from_chars, never strtod or
 * std::stod: those honour LC_NUMERIC, and under a comma-decimal locale
 * "3.14" silently truncates to 3.
 */

#ifndef NETAFFINITY_CORE_JSON_HH
#define NETAFFINITY_CORE_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace na::core::json {

/** One parsed JSON value (tagged union, owning its children). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    /** String payload, or the raw numeric token for Kind::Number. */
    std::string text;
    std::vector<Value> items;
    std::map<std::string, Value> fields;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** @return true if the object has field @p name. */
    bool has(const std::string &name) const;

    /**
     * @return field @p name of an object.
     * @throws std::runtime_error when absent.
     */
    const Value &field(const std::string &name) const;

    /** @return numeric field @p name (throws on absence/kind). */
    double num(const std::string &name) const;

    /** @return string field @p name (throws on absence/kind). */
    const std::string &str(const std::string &name) const;

    /**
     * @return this number as the integer type T: the raw token when
     *         std::from_chars reads all of it as a T (doubles hold
     *         only 53 mantissa bits, not enough for 64-bit seeds and
     *         counters), else the parsed double when it is finite,
     *         integral and inside T's range ("1e3", "2.0").
     * @throws std::runtime_error naming @p what (the field) and the
     *         token for anything else ("2.7", "-1" as an unsigned,
     *         "1e300" as an int), or when this is not a number.
     */
    template <typename T> T as(const std::string &what) const;

    /** @return integer field @p name as a T, checked by as(). */
    template <typename T>
    T
    integer(const std::string &name) const
    {
        return field(name).as<T>(name);
    }

    /** @return unsigned 64-bit field @p name, checked by as(). */
    std::uint64_t
    u64(const std::string &name) const
    {
        return integer<std::uint64_t>(name);
    }
};

/** Throw Value::as()'s error: names @p what, @p v's token and the range. */
[[noreturn]] void badInteger(const std::string &what, const Value &v,
                             const std::string &min,
                             const std::string &max);

template <typename T>
T
Value::as(const std::string &what) const
{
    static_assert(std::is_integral_v<T>);
    using Limits = std::numeric_limits<T>;
    if (kind == Kind::Number) {
        T out{};
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, out);
        if (ec == std::errc() && ptr == end)
            return out;
        // Both bounds are exact doubles: min() is 0 or -2^digits, and
        // the upper bound 2^digits is max() + 1.
        if (std::isfinite(number) && std::trunc(number) == number &&
            number >= static_cast<double>(Limits::min()) &&
            number < std::ldexp(1.0, Limits::digits)) {
            return static_cast<T>(number);
        }
    }
    badInteger(what, *this, std::to_string(Limits::min()),
               std::to_string(Limits::max()));
}

/**
 * Deepest container nesting parse() accepts. The parser recurses once
 * per level, so the cap bounds its stack use whatever a resume stream
 * or shard file holds; the repo's own documents nest a few levels.
 */
inline constexpr int maxDepth = 256;

/**
 * Parse a complete JSON document.
 * @throws std::runtime_error (with byte offset) on malformed input,
 *         including nesting deeper than maxDepth.
 */
Value parse(const std::string &text);

} // namespace na::core::json

#endif // NETAFFINITY_CORE_JSON_HH
