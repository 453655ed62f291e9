/**
 * @file
 * Unit tests for the cache hierarchy and SMP snoop domain — the
 * mechanisms the affinity study rests on.
 */

#include <gtest/gtest.h>

#include "src/mem/addr_alloc.hh"
#include "src/mem/hierarchy.hh"

using namespace na;
using namespace na::mem;

namespace {

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : domain(), h0(&root, "h0", 0, smallGeom(), domain),
          h1(&root, "h1", 1, smallGeom(), domain)
    {
    }

    static CacheGeometry
    smallGeom()
    {
        CacheGeometry g;
        g.l1Size = 1024;
        g.l1Assoc = 2;
        g.l2Size = 4096;
        g.l2Assoc = 4;
        g.l3Size = 16384;
        g.l3Assoc = 4;
        return g;
    }

    stats::Group root{nullptr, ""};
    SnoopDomain domain;
    CacheHierarchy h0;
    CacheHierarchy h1;

    static constexpr sim::Addr kAddr =
        static_cast<sim::Addr>(Region::KernelData) * (1ULL << 30);
};

TEST_F(HierarchyTest, ColdReadMissesToMemory)
{
    AccessResult r = h0.access(kAddr, 64, false);
    EXPECT_EQ(r.lines, 1u);
    EXPECT_EQ(r.llcMisses, 1u);
    EXPECT_EQ(r.remoteHits, 0u);
    EXPECT_EQ(r.stallCycles, MemTiming::memCycles);
    EXPECT_TRUE(h0.present(kAddr));
    EXPECT_EQ(h0.probeLine(kAddr), LineState::Shared);
}

TEST_F(HierarchyTest, WarmReadHitsL1Free)
{
    h0.access(kAddr, 64, false);
    AccessResult r = h0.access(kAddr, 64, false);
    EXPECT_EQ(r.l1Hits, 1u);
    EXPECT_EQ(r.llcMisses, 0u);
    EXPECT_EQ(r.stallCycles, 0u);
}

TEST_F(HierarchyTest, ColdWriteInstallsModified)
{
    h0.access(kAddr, 8, true);
    EXPECT_EQ(h0.probeLine(kAddr), LineState::Modified);
}

TEST_F(HierarchyTest, MultiLineAccessCountsAllLines)
{
    AccessResult r = h0.access(kAddr, 256, false);
    EXPECT_EQ(r.lines, 4u);
    EXPECT_EQ(r.llcMisses, 4u);
    // Unaligned span crossing a line boundary:
    AccessResult r2 = h0.access(kAddr + 4096 + 60, 8, false);
    EXPECT_EQ(r2.lines, 2u);
}

TEST_F(HierarchyTest, RemoteWriteStealsLine)
{
    h0.access(kAddr, 64, false); // CPU0 caches it Shared
    AccessResult r = h1.access(kAddr, 64, true); // CPU1 writes
    EXPECT_EQ(r.stolenFrom[0], 1u);
    EXPECT_TRUE(r.stoleAny());
    EXPECT_FALSE(h0.present(kAddr));
    EXPECT_EQ(h1.probeLine(kAddr), LineState::Modified);
    EXPECT_EQ(h0.linesStolenByRemote.value(), 1.0);
}

TEST_F(HierarchyTest, RemoteDirtyReadIsCacheToCache)
{
    h0.access(kAddr, 64, true); // Modified on CPU0
    AccessResult r = h1.access(kAddr, 64, false);
    EXPECT_EQ(r.remoteHits, 1u);
    EXPECT_EQ(r.stallCycles, MemTiming::c2cCycles);
    // Downgraded to Shared on both sides.
    EXPECT_EQ(h0.probeLine(kAddr), LineState::Shared);
    EXPECT_EQ(h1.probeLine(kAddr), LineState::Shared);
}

TEST_F(HierarchyTest, SharedWriteUpgradesAndInvalidatesRemote)
{
    h0.access(kAddr, 64, false);
    h1.access(kAddr, 64, false); // both Shared
    AccessResult r = h0.access(kAddr, 64, true); // upgrade
    EXPECT_EQ(r.upgrades, 1u);
    EXPECT_EQ(r.stolenFrom[1], 1u);
    EXPECT_EQ(r.llcMisses, 0u); // hit locally, just ownership
    EXPECT_FALSE(h1.present(kAddr));
    EXPECT_EQ(h0.probeLine(kAddr), LineState::Modified);
}

TEST_F(HierarchyTest, PingPongCostsEveryTime)
{
    // The no-affinity pathology: two CPUs alternately writing a line.
    std::uint64_t total_stall = 0;
    for (int i = 0; i < 6; ++i) {
        total_stall += h0.access(kAddr, 8, true).stallCycles;
        total_stall += h1.access(kAddr, 8, true).stallCycles;
    }
    // After the first fill, every access is a c2c transfer.
    EXPECT_GE(total_stall, 11 * MemTiming::c2cCycles);
}

TEST_F(HierarchyTest, InclusionL3VictimBackInvalidatesInnerLevels)
{
    // Fill one L3 set (4 ways): set count = 16384/(4*64) = 64 sets;
    // same-set stride = 64 sets * 64 B = 4096.
    for (int i = 0; i < 4; ++i)
        h0.access(kAddr + static_cast<sim::Addr>(i) * 4096, 8, false);
    // Line 0 may still be in L1/L2; evicting it from L3 must purge it.
    h0.access(kAddr + 4 * 4096, 8, false);
    bool line0_in_l3 =
        h0.l3.probe(kAddr) != LineState::Invalid;
    if (!line0_in_l3) {
        EXPECT_EQ(h0.l1.probe(kAddr), LineState::Invalid);
        EXPECT_EQ(h0.l2.probe(kAddr), LineState::Invalid);
        EXPECT_FALSE(h0.present(kAddr));
    }
}

TEST_F(HierarchyTest, DmaWriteInvalidatesEveryCache)
{
    h0.access(kAddr, 128, true);
    h1.access(kAddr + 64, 64, false);
    DmaResult r = domain.dma(kAddr, 128);
    EXPECT_EQ(r.lines, 2u);
    EXPECT_EQ(r.stolenFrom[0], 2u);
    EXPECT_EQ(r.stolenFrom[1], 1u);
    EXPECT_FALSE(h0.present(kAddr));
    EXPECT_FALSE(h1.present(kAddr + 64));
}

TEST_F(HierarchyTest, DmaReadInvalidatesOnThisChipset)
{
    // The modeled ServerWorks-era chipset invalidates on DMA reads too,
    // so transmitted payload buffers come back cold — the reason TX
    // copies don't improve with affinity.
    h0.access(kAddr, 64, true);
    DmaResult r = domain.dma(kAddr, 64);
    EXPECT_EQ(r.lines, 1u);
    EXPECT_EQ(r.stolenFrom[0], 1u);
    EXPECT_FALSE(h0.present(kAddr));
}

TEST_F(HierarchyTest, UncacheableAccessBypassesCaches)
{
    const sim::Addr mmio =
        static_cast<sim::Addr>(Region::Mmio) * (1ULL << 30) + 0x40;
    AccessResult rd = h0.access(mmio, 4, false);
    EXPECT_EQ(rd.uncached, 1u);
    EXPECT_EQ(rd.stallCycles, MemTiming::uncachedCycles);
    EXPECT_FALSE(h0.present(mmio));
    AccessResult wr = h0.access(mmio, 4, true);
    EXPECT_EQ(wr.stallCycles, MemTiming::uncachedWriteCycles);
}

TEST_F(HierarchyTest, OverlapScalesMissPenalty)
{
    AccessResult full = h0.access(kAddr, 64, false, 1.0);
    domain.dma(kAddr, 64); // ensure gone everywhere
    AccessResult half = h1.access(kAddr + 4096 * 7, 64, false, 0.5);
    EXPECT_NEAR(static_cast<double>(half.stallCycles),
                static_cast<double>(full.stallCycles) / 2.0, 1.0);
}

TEST_F(HierarchyTest, ZeroByteAccessIsNoop)
{
    AccessResult r = h0.access(kAddr, 0, true);
    EXPECT_EQ(r.lines, 0u);
    EXPECT_EQ(r.stallCycles, 0u);
}

TEST_F(HierarchyTest, L2AndL3HitLatencies)
{
    h0.access(kAddr, 64, false);
    // Evict from L1 only: fill its set. L1: 1024/(2*64)=8 sets,
    // same-set stride = 8*64 = 512.
    h0.access(kAddr + 512, 8, false);
    h0.access(kAddr + 1024, 8, false);
    // kAddr should now be L1-evicted but L2-resident.
    AccessResult r = h0.access(kAddr, 8, false);
    EXPECT_EQ(r.l1Hits, 0u);
    EXPECT_EQ(r.l2Hits + r.l3Hits, 1u);
    EXPECT_GT(r.stallCycles, 0u);
    EXPECT_LT(r.stallCycles, MemTiming::memCycles);
}

TEST(HierarchyDeath, CpusMustRegisterInOrder)
{
    stats::Group root(nullptr, "");
    SnoopDomain domain;
    EXPECT_EXIT(CacheHierarchy(&root, "h", 1, CacheGeometry{}, domain),
                ::testing::ExitedWithCode(1), "CPU-id order");
}

TEST(AddressAllocator, RegionsAndRounding)
{
    AddressAllocator alloc;
    const sim::Addr a = alloc.alloc(Region::KernelData, 10);
    const sim::Addr b = alloc.alloc(Region::KernelData, 10);
    EXPECT_EQ(b - a, 64u); // line-rounded
    EXPECT_EQ(AddressAllocator::regionOf(a), Region::KernelData);
    EXPECT_FALSE(AddressAllocator::isUncacheable(a));
    const sim::Addr m = alloc.alloc(Region::Mmio, 4);
    EXPECT_TRUE(AddressAllocator::isUncacheable(m));
    EXPECT_EQ(alloc.allocated(Region::KernelData), 128u);
}

TEST(AddressAllocator, DistinctRegionsDoNotOverlap)
{
    AddressAllocator alloc;
    const sim::Addr a = alloc.alloc(Region::SkbSlab, 64);
    const sim::Addr b = alloc.alloc(Region::UserData, 64);
    EXPECT_NE(AddressAllocator::regionOf(a),
              AddressAllocator::regionOf(b));
}

} // namespace
