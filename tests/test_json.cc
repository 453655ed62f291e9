/**
 * @file
 * core::json nesting cap: hostile depth throws with its byte offset
 * instead of overflowing the parser's stack, and documents up to the
 * cap still parse.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/core/json.hh"

using namespace na::core;

namespace {

/** @return the message parse() throws for @p text ("" if none). */
std::string
parseError(const std::string &text)
{
    try {
        (void)json::parse(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** Alternating object/array nesting, @p levels containers deep. */
std::string
mixedNesting(int levels)
{
    std::string open;
    std::string close;
    for (int i = 0; i < levels; ++i) {
        if (i % 2 == 0) {
            open += "{\"k\":";
            close = "}" + close;
        } else {
            open += "[";
            close = "]" + close;
        }
    }
    return open + "1" + close;
}

TEST(JsonDepth, MillionOpenBracketsThrowWithOffset)
{
    const std::string text(1'000'000, '[');
    // Brackets 0..maxDepth-1 open fine; the next one is refused.
    EXPECT_EQ(parseError(text),
              "json: nesting deeper than 256 at offset 256");
    static_assert(json::maxDepth == 256);
}

TEST(JsonDepth, MixedNestingPastTheCapThrows)
{
    const std::string err = parseError(mixedNesting(json::maxDepth + 1));
    EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
    EXPECT_NE(err.find("at offset"), std::string::npos) << err;
}

TEST(JsonDepth, DocumentExactlyAtTheCapParses)
{
    const std::string arrays = std::string(json::maxDepth, '[') +
                               std::string(json::maxDepth, ']');
    const json::Value v = json::parse(arrays);
    int depth = 0;
    for (const json::Value *p = &v; p && p->isArray(); ++depth)
        p = p->items.empty() ? nullptr : &p->items.front();
    EXPECT_EQ(depth, json::maxDepth);

    const json::Value mixed = json::parse(mixedNesting(json::maxDepth));
    EXPECT_TRUE(mixed.isObject());
}

} // namespace
