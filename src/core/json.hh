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

#include <cstdint>
#include <map>
#include <string>
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
     * @return unsigned field @p name, re-parsed from the raw token:
     *         doubles hold only 53 mantissa bits, not enough for
     *         64-bit seeds and counters.
     */
    std::uint64_t u64(const std::string &name) const;

    /** This value's own 64-bit unsigned interpretation. */
    std::uint64_t asU64() const;
};

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
