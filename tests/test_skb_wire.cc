/**
 * @file
 * Unit tests for the skb slab pool and the wire model.
 */

#include <gtest/gtest.h>

#include "src/net/fault_injector.hh"
#include "src/net/skb.hh"
#include "src/net/wire.hh"
#include "src/os/exec_context.hh"
#include "src/os/kernel.hh"

using namespace na;
using namespace na::net;

namespace {

class SkbTest : public ::testing::Test
{
  protected:
    SkbTest()
        : kernel(&root, eq, cpu::PlatformConfig{}),
          pool(&root, kernel, 256),
          c0(kernel, kernel.processor(0), nullptr),
          c1(kernel, kernel.processor(1), nullptr)
    {
    }

    stats::Group root{nullptr, ""};
    sim::EventQueue eq;
    os::Kernel kernel;
    SkbPool pool;
    os::ExecContext c0;
    os::ExecContext c1;
};

TEST_F(SkbTest, AllocGivesDistinctSlots)
{
    SkBuff a = pool.alloc(c0);
    SkBuff b = pool.alloc(c0);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    EXPECT_NE(a.slot, b.slot);
    EXPECT_NE(a.dataAddr, b.dataAddr);
    EXPECT_NE(a.structAddr, b.structAddr);
    EXPECT_EQ(mem::AddressAllocator::regionOf(a.dataAddr),
              mem::Region::SkbSlab);
    pool.free(c0, a);
    pool.free(c0, b);
}

TEST_F(SkbTest, LifoReusePerCpu)
{
    SkBuff a = pool.alloc(c0);
    const int slot = a.slot;
    pool.free(c0, a);
    SkBuff b = pool.alloc(c0);
    EXPECT_EQ(b.slot, slot) << "front cache must reuse LIFO";
    pool.free(c0, b);
}

TEST_F(SkbTest, FrontCachesAreDistinctPerCpu)
{
    SkBuff a = pool.alloc(c0);
    pool.free(c0, a); // on CPU0's front now
    SkBuff b = pool.alloc(c1);
    EXPECT_NE(b.slot, a.slot) << "CPU1 must not see CPU0's front";
    pool.free(c1, b);
}

TEST_F(SkbTest, CountsConserveSlots)
{
    const int before = pool.freeCount();
    std::vector<SkBuff> held;
    for (int i = 0; i < 100; ++i)
        held.push_back(pool.alloc(c0));
    EXPECT_EQ(pool.freeCount(), before - 100);
    for (const SkBuff &s : held)
        pool.free(c0, s);
    EXPECT_EQ(pool.freeCount(), before);
    EXPECT_EQ(pool.allocs.value(), 100.0);
    EXPECT_EQ(pool.frees.value(), 100.0);
}

TEST_F(SkbTest, ExhaustionReturnsInvalid)
{
    std::vector<SkBuff> held;
    for (int i = 0; i < 256; ++i) {
        SkBuff s = pool.alloc(c0);
        if (s.valid())
            held.push_back(s);
    }
    SkBuff fail = pool.alloc(c0);
    EXPECT_FALSE(fail.valid());
    EXPECT_GT(pool.exhausted.value(), 0.0);
    for (const SkBuff &s : held)
        pool.free(c0, s);
}

TEST_F(SkbTest, FrontFlushReturnsSlotsToSharedList)
{
    // Free far more than 2*batch on CPU0: flushes must occur, making
    // slots visible to CPU1.
    std::vector<SkBuff> held;
    for (int i = 0; i < 200; ++i)
        held.push_back(pool.alloc(c0));
    for (const SkBuff &s : held)
        pool.free(c0, s);
    EXPECT_GT(pool.flushes.value(), 0.0);
    // CPU1 can now drain more than the shared remainder alone.
    std::vector<SkBuff> held1;
    for (int i = 0; i < 150; ++i) {
        SkBuff s = pool.alloc(c1);
        ASSERT_TRUE(s.valid()) << "flushed slots lost";
        held1.push_back(s);
    }
    for (const SkBuff &s : held1)
        pool.free(c1, s);
}

TEST_F(SkbTest, AllocRawBypassesCharges)
{
    const double busy = kernel.core(0).counters.busyCycles.value();
    SkBuff s = pool.allocRaw();
    ASSERT_TRUE(s.valid());
    EXPECT_EQ(kernel.core(0).counters.busyCycles.value(), busy);
    EXPECT_EQ(pool.slotRef(s.slot).dataAddr, s.dataAddr);
}

TEST_F(SkbTest, DeathOnFreeingInvalid)
{
    EXPECT_DEATH(pool.free(c0, SkBuff{}), "invalid skb");
}

class WireTest : public ::testing::Test
{
  protected:
    WireTest()
        : wire(&root, "w", eq)
    {
        wire.attachA([this](const Packet &p) { atA.push_back(p); });
        wire.attachB([this](const Packet &p) { atB.push_back(p); });
    }

    Packet
    mkPkt(std::uint32_t len)
    {
        Packet p;
        p.flow = FlowKey{1, 2, 3, 4};
        p.seg.len = len;
        return p;
    }

    stats::Group root{nullptr, ""};
    sim::EventQueue eq;
    Wire wire;
    std::vector<Packet> atA;
    std::vector<Packet> atB;
};

TEST_F(WireTest, DeliversWithSerializationPlusLatency)
{
    wire.sendFromA(mkPkt(1448));
    // (1448+90)*8 bits at 1 Gb/s on a 2 GHz clock = 24608 ticks.
    const sim::Tick ser = (1448 + 90) * 8 * 2;
    EXPECT_EQ(Wire::serializationTicks(mkPkt(1448)), ser);
    eq.runUntil(ser + Wire::latencyTicks - 1);
    EXPECT_TRUE(atB.empty());
    eq.runUntil(ser + Wire::latencyTicks);
    ASSERT_EQ(atB.size(), 1u);
    EXPECT_EQ(atB[0].seg.len, 1448u);
}

TEST_F(WireTest, BackToBackSendsSerialize)
{
    wire.sendFromA(mkPkt(1448));
    wire.sendFromA(mkPkt(1448));
    const sim::Tick ser = (1448 + 90) * 8 * 2;
    eq.runUntil(ser + Wire::latencyTicks);
    EXPECT_EQ(atB.size(), 1u);
    eq.runUntil(2 * ser + Wire::latencyTicks);
    EXPECT_EQ(atB.size(), 2u);
}

TEST_F(WireTest, DirectionsAreIndependent)
{
    wire.sendFromA(mkPkt(1448));
    wire.sendFromB(mkPkt(1448));
    const sim::Tick ser = (1448 + 90) * 8 * 2;
    eq.runUntil(ser + Wire::latencyTicks);
    EXPECT_EQ(atA.size(), 1u);
    EXPECT_EQ(atB.size(), 1u);
    EXPECT_EQ(wire.pktsAtoB.value(), 1.0);
    EXPECT_EQ(wire.pktsBtoA.value(), 1.0);
}

TEST_F(WireTest, LossDropsApproximatelyAtConfiguredRate)
{
    sim::FaultPlan plan;
    plan.toPeer.lossProb = 0.5;
    FaultInjector faults(&root, "faults", plan, /*seed=*/7);
    wire.setFaultInjector(&faults);
    for (int i = 0; i < 1000; ++i)
        wire.sendFromA(mkPkt(100));
    eq.runUntil(1'000'000'000);
    EXPECT_NEAR(static_cast<double>(atB.size()), 500.0, 60.0);
    EXPECT_NEAR(wire.losses(), 500.0, 60.0);
}

TEST_F(WireTest, PayloadByteCountersTrackData)
{
    wire.sendFromA(mkPkt(1000));
    wire.sendFromA(mkPkt(500));
    eq.runUntil(1'000'000);
    EXPECT_EQ(wire.bytesAtoB.value(), 1500.0);
}

TEST(WireDeath, SendWithoutReceiverPanics)
{
    stats::Group root(nullptr, "");
    sim::EventQueue eq;
    Wire w(&root, "w", eq);
    Packet p;
    p.seg.len = 1;
    EXPECT_DEATH(w.sendFromA(p), "no receiver");
}

} // namespace
