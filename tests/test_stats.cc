/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/stats/stats.hh"

using namespace na::stats;

namespace {

TEST(Scalar, AccumulatesAndResets)
{
    Group root(nullptr, "");
    Scalar s(&root, "s", "test scalar");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
    s.set(7);
    EXPECT_EQ(s.value(), 7.0);
}

TEST(Vector, BucketsAndTotal)
{
    Group root(nullptr, "");
    Vector v(&root, "v", "test vector", {"a", "b", "c"});
    EXPECT_EQ(v.size(), 3u);
    v[0] = 1;
    v[1] = 2;
    v[2] = 4;
    EXPECT_DOUBLE_EQ(v.total(), 7.0);
    v.reset();
    EXPECT_DOUBLE_EQ(v.total(), 0.0);
}

TEST(Vector, OutOfRangeThrows)
{
    Group root(nullptr, "");
    Vector v(&root, "v", "test vector", {"a"});
    EXPECT_THROW(v[5] = 1, std::out_of_range);
}

TEST(Group, DumpEmitsHierarchicalNames)
{
    Group root(nullptr, "");
    Group child(&root, "child");
    Scalar s(&child, "hits", "hit count");
    s += 3;
    std::ostringstream os;
    root.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("child.hits"), std::string::npos);
    EXPECT_NE(out.find("hit count"), std::string::npos);
}

TEST(Group, ResetCascadesToChildren)
{
    Group root(nullptr, "");
    Group child(&root, "child");
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetStats();
    EXPECT_EQ(a.value(), 0.0);
    EXPECT_EQ(b.value(), 0.0);
}

TEST(Group, ChildRemovedOnDestruction)
{
    Group root(nullptr, "");
    {
        Group child(&root, "gone");
        Scalar s(&child, "x", "");
        s += 1;
    }
    std::ostringstream os;
    root.dumpStats(os); // must not touch the dead child
    EXPECT_EQ(os.str().find("gone"), std::string::npos);
}

} // namespace
