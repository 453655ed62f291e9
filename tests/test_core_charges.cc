/**
 * @file
 * Unit tests for the CPU core charge engine: cycle roll-up, event
 * accounting, machine-clear mechanics, branch model, code-side costs.
 */

#include <gtest/gtest.h>

#include "src/cpu/core.hh"
#include "src/prof/accounting.hh"

using namespace na;
using namespace na::cpu;

namespace {

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : acct(2)
    {
        core0 = std::make_unique<Core>(&root, "cpu0", 0, config, domain,
                                       acct);
        core1 = std::make_unique<Core>(&root, "cpu1", 1, config, domain,
                                       acct);
        core0->setPeers({core0.get(), core1.get()});
        core1->setPeers({core0.get(), core1.get()});
        core0->beginDispatch();
        core1->beginDispatch();
    }

    stats::Group root{nullptr, ""};
    PlatformConfig config;
    prof::BinAccounting acct;
    mem::SnoopDomain domain;
    std::unique_ptr<Core> core0;
    std::unique_ptr<Core> core1;

    static constexpr sim::Addr dataAddr =
        static_cast<sim::Addr>(mem::Region::KernelData) * (1ULL << 30);
};

TEST_F(CoreTest, PlainChargeRollsUpCycles)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 1000;
    const ChargeResult r = core0->charge(spec);
    const prof::FuncDesc &d = prof::funcDesc(prof::FuncId::TcpAck);
    // At least base CPI worth of cycles, plus code-side costs.
    EXPECT_GE(r.cycles, static_cast<sim::Tick>(1000 * d.baseCpi));
    EXPECT_EQ(core0->dispatchCycles(), r.cycles);
    EXPECT_EQ(acct.get(0, prof::FuncId::TcpAck,
                       prof::Event::Instructions),
              1000u);
    EXPECT_EQ(acct.get(0, prof::FuncId::TcpAck, prof::Event::Cycles),
              r.cycles);
    EXPECT_DOUBLE_EQ(core0->counters.instructions.value(), 1000.0);
}

TEST_F(CoreTest, SerializeCyclesAreCharged)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::SysWrite; // has serializeCycles
    spec.instructions = 10;
    const ChargeResult r = core0->charge(spec);
    EXPECT_GE(r.cycles,
              prof::funcDesc(prof::FuncId::SysWrite).serializeCycles);
}

TEST_F(CoreTest, MemoryTouchesProduceMisses)
{
    cpu::MemTouch t{dataAddr, 256, false};
    ChargeSpec spec;
    spec.func = prof::FuncId::CopyToUser;
    spec.instructions = 100;
    spec.touches = std::span<const cpu::MemTouch>(&t, 1);
    const ChargeResult r = core0->charge(spec);
    EXPECT_EQ(r.llcMisses, 4u); // 256B cold = 4 lines
    EXPECT_EQ(acct.get(0, prof::FuncId::CopyToUser,
                       prof::Event::LlcMisses),
              4u);
    // Second access: warm.
    const ChargeResult r2 = core0->charge(spec);
    EXPECT_EQ(r2.llcMisses, 0u);
    EXPECT_LT(r2.cycles, r.cycles);
}

TEST_F(CoreTest, BranchDefaultsFollowBranchFrac)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 10000;
    core0->charge(spec);
    const double expected =
        10000 * prof::funcDesc(prof::FuncId::TcpAck).branchFrac;
    EXPECT_NEAR(core0->counters.branches.value(), expected, 1.0);
}

TEST_F(CoreTest, BranchOverridesRespected)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::LockSock;
    spec.instructions = 100;
    spec.branchesOverride = 37;
    spec.mispredictsOverride = 5;
    core0->charge(spec);
    EXPECT_DOUBLE_EQ(core0->counters.branches.value(), 37.0);
    EXPECT_DOUBLE_EQ(core0->counters.brMispredicts.value(), 5.0);
}

TEST_F(CoreTest, MispredictsNeverExceedBranches)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 3; // ~0 branches
    for (int i = 0; i < 200; ++i)
        core0->charge(spec);
    EXPECT_LE(core0->counters.brMispredicts.value(),
              core0->counters.branches.value());
}

TEST_F(CoreTest, AsyncClearsCountAndCost)
{
    ChargeSpec base;
    base.func = prof::FuncId::IrqNic0;
    base.instructions = 50;
    core0->charge(base); // warm code

    const double clears_before = core0->counters.machineClears.value();
    ChargeSpec spec = base;
    spec.asyncClears = 3;
    core0->charge(spec);
    EXPECT_GE(core0->counters.machineClears.value(),
              clears_before + 3.0);
    EXPECT_GE(acct.get(0, prof::FuncId::IrqNic0,
                       prof::Event::MachineClears),
              3u);
}

TEST_F(CoreTest, IntrinsicClearsScaleWithInstructions)
{
    // Copies has the highest intrinsic clear rate.
    ChargeSpec spec;
    spec.func = prof::FuncId::CopyFromUser;
    spec.instructions = 100000;
    double clears = 0;
    for (int i = 0; i < 20; ++i)
        clears += static_cast<double>(core0->charge(spec).machineClears);
    const double expected =
        20 * 100000 *
        config.intrinsicClearsPerKInstr[static_cast<std::size_t>(
            prof::Bin::Copies)] /
        1000.0;
    EXPECT_NEAR(clears, expected, expected * 0.2);
}

TEST_F(CoreTest, StealNotifiesBusyVictim)
{
    // CPU1 caches a line and is busy.
    core1->setBusy(true);
    cpu::MemTouch t{dataAddr + 4096, 64, true};
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 10;
    spec.touches = std::span<const cpu::MemTouch>(&t, 1);
    core1->charge(spec);

    // CPU0 writes the same line many times; victim clears appear with
    // probability orderingClearProb per steal.
    const double before = core1->counters.machineClears.value();
    int steals = 0;
    for (int i = 0; i < 400; ++i) {
        core1->charge(spec); // re-own on CPU1
        const ChargeResult r = core0->charge(spec);
        steals += static_cast<int>(r.stolenFrom[1]);
    }
    ASSERT_GT(steals, 300);
    const double delta =
        core1->counters.machineClears.value() - before;
    // Expect ~= steals * p (intrinsic clears for these tiny charges
    // are negligible but allow slack).
    EXPECT_NEAR(delta, steals * config.orderingClearProb,
                steals * 0.15);
}

TEST_F(CoreTest, IdleVictimTakesNoOrderingClears)
{
    core1->setBusy(true);
    cpu::MemTouch t{dataAddr + 8192, 64, true};
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 10;
    spec.touches = std::span<const cpu::MemTouch>(&t, 1);
    core1->charge(spec);
    core1->setBusy(false);

    const double before = core1->counters.machineClears.value();
    core0->charge(spec); // steals from idle CPU1
    EXPECT_EQ(core1->counters.machineClears.value(), before);
}

TEST_F(CoreTest, IpiClearAttributedToCurrentFunction)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpRcvEst;
    spec.instructions = 100;
    core0->charge(spec);
    core0->setBusy(true);
    const auto before = acct.get(0, prof::FuncId::TcpRcvEst,
                                 prof::Event::MachineClears);
    core0->postIpiClear();
    EXPECT_EQ(acct.get(0, prof::FuncId::TcpRcvEst,
                       prof::Event::MachineClears),
              before + 1);
    EXPECT_EQ(core0->currentFunc(), prof::FuncId::TcpRcvEst);
}

TEST_F(CoreTest, PendingClearPenaltyLandsOnNextCharge)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 100;
    core0->charge(spec);
    const sim::Tick clean = core0->charge(spec).cycles;
    core0->setBusy(true);
    core0->postIpiClear();
    const sim::Tick with_penalty = core0->charge(spec).cycles;
    EXPECT_GE(with_penalty, clean + config.clearPenaltyEffective);
}

TEST_F(CoreTest, CodeSideCostsColdThenWarm)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpRcvEst;
    spec.instructions = 10;
    core0->charge(spec);
    EXPECT_GT(core0->counters.tcMisses.value(), 0.0);
    EXPECT_GT(core0->counters.itlbMisses.value(), 0.0);
    const double tc = core0->counters.tcMisses.value();
    core0->charge(spec); // warm now
    EXPECT_EQ(core0->counters.tcMisses.value(), tc);
}

TEST_F(CoreTest, DtlbWalksOnNewPages)
{
    cpu::MemTouch t{dataAddr + (50ULL << 12), 8192, false};
    ChargeSpec spec;
    spec.func = prof::FuncId::CopyToUser;
    spec.instructions = 10;
    spec.touches = std::span<const cpu::MemTouch>(&t, 1);
    core0->charge(spec);
    EXPECT_GE(core0->counters.dtlbMisses.value(), 2.0); // 8KB = 2+ pages
}

TEST_F(CoreTest, IdleCyclesTrackedSeparately)
{
    core0->addIdleCycles(12345);
    EXPECT_DOUBLE_EQ(core0->counters.idleCycles.value(), 12345.0);
    EXPECT_DOUBLE_EQ(core0->counters.busyCycles.value(), 0.0);
    EXPECT_DOUBLE_EQ(core0->counters.utilization(), 0.0);
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 100;
    core0->charge(spec);
    EXPECT_GT(core0->counters.utilization(), 0.0);
    EXPECT_LT(core0->counters.utilization(), 1.0);
}

TEST_F(CoreTest, BeginDispatchResetsAccumulator)
{
    ChargeSpec spec;
    spec.func = prof::FuncId::TcpAck;
    spec.instructions = 100;
    core0->charge(spec);
    EXPECT_GT(core0->dispatchCycles(), 0u);
    core0->beginDispatch();
    EXPECT_EQ(core0->dispatchCycles(), 0u);
}

TEST_F(CoreTest, ExtraCyclesAddDirectly)
{
    ChargeSpec a;
    a.func = prof::FuncId::LockSock;
    a.instructions = 10;
    a.branchesOverride = 0;
    a.mispredictsOverride = 0;
    core0->charge(a); // warm the code side
    const sim::Tick base = core0->charge(a).cycles;
    a.extraCycles = 5000;
    EXPECT_EQ(core0->charge(a).cycles, base + 5000);
}

} // namespace
