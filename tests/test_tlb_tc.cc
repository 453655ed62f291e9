/**
 * @file
 * Unit tests for the TLB and trace cache models.
 */

#include <gtest/gtest.h>

#include "src/mem/tlb.hh"
#include "src/mem/trace_cache.hh"

using namespace na;
using namespace na::mem;

namespace {

TEST(Tlb, WalkThenHit)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same page
    EXPECT_FALSE(tlb.access(0x2000)); // next page
    EXPECT_EQ(tlb.walks.value(), 2.0);
    EXPECT_EQ(tlb.hits.value(), 2.0);
}

TEST(Tlb, LruEvictionAtCapacity)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);        // refresh page 0
    tlb.access(0x2000);        // evicts page 1
    EXPECT_TRUE(tlb.resident(0x0000));
    EXPECT_FALSE(tlb.resident(0x1000));
    EXPECT_TRUE(tlb.resident(0x2000));
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, FlushAllEmpties)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 8);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_FALSE(tlb.resident(0x1000));
}

TEST(Tlb, ResidentDoesNotRefreshLru)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.resident(0x0000); // must not refresh
    tlb.access(0x2000);   // evicts page 0 (still LRU)
    EXPECT_FALSE(tlb.resident(0x0000));
}

TEST(TlbDeath, ZeroEntriesIsFatal)
{
    stats::Group root(nullptr, "");
    EXPECT_EXIT(Tlb(&root, "dtlb", 0), ::testing::ExitedWithCode(1),
                "at least one entry");
}

TEST(TraceCache, HitAfterBuild)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 1024);
    EXPECT_GT(tc.access(1, 256), 0u);
    EXPECT_EQ(tc.access(1, 256), 0u);
    EXPECT_TRUE(tc.resident(1));
    EXPECT_EQ(tc.usedBytes(), 256u);
}

TEST(TraceCache, MissCountsTraceLines)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 4096);
    EXPECT_EQ(tc.access(1, 256), 4u);  // 256/64
    EXPECT_EQ(tc.access(2, 100), 2u);  // ceil(100/64)
}

TEST(TraceCache, EvictsLruWhenFull)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 512);
    tc.access(1, 256);
    tc.access(2, 256);
    tc.access(1, 256); // refresh 1
    tc.access(3, 256); // evicts 2
    EXPECT_TRUE(tc.resident(1));
    EXPECT_FALSE(tc.resident(2));
    EXPECT_TRUE(tc.resident(3));
    EXPECT_LE(tc.usedBytes(), 512u);
}

TEST(TraceCache, OversizedFunctionStreams)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 256);
    EXPECT_EQ(tc.access(1, 1024), 16u);
    EXPECT_FALSE(tc.resident(1)); // never resident
    EXPECT_EQ(tc.access(1, 1024), 16u); // misses again
    EXPECT_EQ(tc.usedBytes(), 0u);
}

TEST(TraceCache, FlushAllEmpties)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 1024);
    tc.access(1, 512);
    tc.flushAll();
    EXPECT_FALSE(tc.resident(1));
    EXPECT_EQ(tc.usedBytes(), 0u);
}

} // namespace
