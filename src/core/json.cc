#include "src/core/json.hh"

#include <cctype>
#include <charconv>
#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::core::json {

bool
Value::has(const std::string &name) const
{
    return fields.find(name) != fields.end();
}

const Value &
Value::field(const std::string &name) const
{
    auto it = fields.find(name);
    if (it == fields.end())
        throw std::runtime_error("json: missing field '" + name + "'");
    return it->second;
}

double
Value::num(const std::string &name) const
{
    const Value &v = field(name);
    if (v.kind != Kind::Number)
        throw std::runtime_error("json: field '" + name +
                                 "' is not a number");
    return v.number;
}

void
badInteger(const std::string &what, const Value &v,
           const std::string &min, const std::string &max)
{
    if (v.kind != Value::Kind::Number)
        throw std::runtime_error("json: field '" + what +
                                 "' is not a number");
    throw std::runtime_error("json: field '" + what + "' = " + v.text +
                             " is not an integer in [" + min + ", " +
                             max + "]");
}

const std::string &
Value::str(const std::string &name) const
{
    const Value &v = field(name);
    if (v.kind != Kind::String)
        throw std::runtime_error("json: field '" + name +
                                 "' is not a string");
    return v.text;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : src(text) {}

    Value
    parse()
    {
        Value v = parseValue();
        skipWs();
        if (pos != src.size())
            fail("trailing characters");
        return v;
    }

  private:
    const std::string &src;
    std::size_t pos = 0;
    int depth = 0; ///< containers currently open

    [[noreturn]] void
    fail(const std::string &why) const
    {
        failAt(why, pos);
    }

    [[noreturn]] static void
    failAt(const std::string &why, std::size_t offset)
    {
        throw std::runtime_error(sim::format(
            "json: %s at offset %zu", why.c_str(), offset));
    }

    void
    skipWs()
    {
        while (pos < src.size() &&
               std::isspace(static_cast<unsigned char>(src[pos]))) {
            ++pos;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos >= src.size())
            fail("unexpected end of input");
        return src[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(sim::format("expected '%c'", c));
        ++pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (src.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth == maxDepth)
                fail(sim::format("nesting deeper than %d", maxDepth));
            ++depth;
            Value v = c == '{' ? parseObject() : parseArray();
            --depth;
            return v;
        }
        if (c == '"') {
            Value v;
            v.kind = Value::Kind::String;
            v.text = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            Value v;
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            Value v;
            v.kind = Value::Kind::Bool;
            return v;
        }
        if (consumeLiteral("null"))
            return Value{};
        return parseNumber();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= src.size())
                fail("unterminated string");
            const char c = src[pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos >= src.size())
                    fail("unterminated escape");
                const char e = src[pos++];
                switch (e) {
                  case '"':  out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/'; break;
                  case 'n':  out += '\n'; break;
                  case 't':  out += '\t'; break;
                  case 'r':  out += '\r'; break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > src.size())
                        fail("truncated \\u escape");
                    unsigned code = 0;
                    const auto [ptr, ec] = std::from_chars(
                        src.data() + pos, src.data() + pos + 4, code, 16);
                    if (ec != std::errc() || ptr != src.data() + pos + 4)
                        fail("bad \\u escape");
                    pos += 4;
                    // Our writers only emit \u00xx control codes.
                    out += static_cast<char>(code & 0xff);
                    break;
                  }
                  default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos;
        while (pos < src.size() &&
               (std::isdigit(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '-' || src[pos] == '+' || src[pos] == '.' ||
                src[pos] == 'e' || src[pos] == 'E')) {
            ++pos;
        }
        if (pos == start)
            fail("expected a value");
        Value v;
        v.kind = Value::Kind::Number;
        v.text = src.substr(start, pos - start);
        // from_chars, not stod: stod obeys LC_NUMERIC, and a
        // comma-decimal locale would truncate "3.14" to 3.
        const auto [ptr, ec] = std::from_chars(
            v.text.data(), v.text.data() + v.text.size(), v.number);
        if (ec != std::errc() || ptr != v.text.data() + v.text.size())
            fail("malformed number");
        return v;
    }

    Value
    parseArray()
    {
        expect('[');
        Value v;
        v.kind = Value::Kind::Array;
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            const char c = peek();
            ++pos;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Value v;
        v.kind = Value::Kind::Object;
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            skipWs();
            const std::size_t key_at = pos;
            const std::string key = parseString();
            expect(':');
            if (!v.fields.emplace(key, parseValue()).second)
                failAt("duplicate key '" + key + "'", key_at);
            const char c = peek();
            ++pos;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace na::core::json
