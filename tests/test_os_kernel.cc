/**
 * @file
 * Integration tests for the OS layer: scheduling, wakeups, affinity,
 * timers, interrupts, idle accounting — driven through real event-queue
 * execution with synthetic task logic.
 */

#include <gtest/gtest.h>

#include "src/os/kernel.hh"
#include "src/sim/logging.hh"

#include <set>
#include <vector>

using namespace na;
using namespace na::os;

namespace {

/** Burns a fixed charge per step; optionally sleeps on a wait queue. */
class BurnLogic : public TaskLogic
{
  public:
    explicit BurnLogic(std::uint64_t instr = 500) : instr(instr) {}

    StepStatus
    step(ExecContext &ctx) override
    {
        ++steps;
        lastCpu = ctx.cpuId();
        ++stepsPerCpu[static_cast<std::size_t>(ctx.cpuId())];
        ctx.charge(prof::FuncId::UserApp, instr, {});
        if (sleepAfter > 0 && steps >= sleepAfter && wq) {
            wq->sleepOn(ctx.task);
            return StepStatus::Blocked;
        }
        if (exitAfter > 0 && steps >= exitAfter)
            return StepStatus::Exited;
        return StepStatus::Continue;
    }

    std::uint64_t instr;
    int steps = 0;
    int sleepAfter = 0;
    int exitAfter = 0;
    WaitQueue *wq = nullptr;
    sim::CpuId lastCpu = sim::invalidCpu;
    std::array<int, 8> stepsPerCpu{};
};

class OsTest : public ::testing::Test
{
  protected:
    OsTest() : kernel(&root, eq, config())
    {
        kernel.start();
    }

    static cpu::PlatformConfig
    config()
    {
        cpu::PlatformConfig c;
        c.numCpus = 2;
        return c;
    }

    stats::Group root{nullptr, ""};
    sim::EventQueue eq;
    Kernel kernel;
};

TEST_F(OsTest, TasksRunAndExit)
{
    BurnLogic logic;
    logic.exitAfter = 10;
    Task *t = kernel.createTask("t", &logic);
    eq.runUntil(10'000'000);
    EXPECT_EQ(logic.steps, 10);
    EXPECT_EQ(t->state, TaskState::Exited);
}

TEST_F(OsTest, RunnableTasksShareBothCpus)
{
    std::vector<std::unique_ptr<BurnLogic>> logics;
    for (int i = 0; i < 4; ++i) {
        logics.push_back(std::make_unique<BurnLogic>(2000));
        kernel.createTask(sim::format("t%d", i), logics.back().get());
    }
    eq.runUntil(50'000'000); // 25 ms: past a timeslice
    int total = 0;
    std::array<int, 2> per_cpu{};
    for (auto &l : logics) {
        total += l->steps;
        per_cpu[0] += l->stepsPerCpu[0];
        per_cpu[1] += l->stepsPerCpu[1];
    }
    EXPECT_GT(total, 1000);
    EXPECT_GT(per_cpu[0], total / 4);
    EXPECT_GT(per_cpu[1], total / 4);
}

TEST_F(OsTest, TimesliceRotatesCpuHogs)
{
    // 3 hogs on 1 allowed CPU: all must make progress via timeslices.
    std::vector<std::unique_ptr<BurnLogic>> logics;
    for (int i = 0; i < 3; ++i) {
        logics.push_back(std::make_unique<BurnLogic>(5000));
        kernel.createTask(sim::format("hog%d", i), logics.back().get(),
                          0x1);
    }
    // 3 slices x 10 ms each, plus margin.
    eq.runUntil(90'000'000);
    for (auto &l : logics) {
        EXPECT_GT(l->steps, 100) << "a hog starved";
        EXPECT_EQ(l->stepsPerCpu[1], 0) << "affinity violated";
    }
}

TEST_F(OsTest, AffinityMaskConfinesTask)
{
    BurnLogic logic(1000);
    kernel.createTask("pinned", &logic, 0x2); // CPU1 only
    eq.runUntil(30'000'000);
    EXPECT_GT(logic.steps, 0);
    EXPECT_EQ(logic.stepsPerCpu[0], 0);
    EXPECT_GT(logic.stepsPerCpu[1], 0);
}

TEST_F(OsTest, SchedSetaffinityMovesRunningTask)
{
    BurnLogic logic(1000);
    Task *t = kernel.createTask("mover", &logic, 0x1);
    eq.runUntil(10'000'000);
    const int steps_on_0 = logic.stepsPerCpu[0];
    EXPECT_GT(steps_on_0, 0);
    kernel.schedSetaffinity(t, 0x2);
    eq.runUntil(20'000'000);
    EXPECT_EQ(logic.stepsPerCpu[0], steps_on_0) << "still ran on CPU0";
    EXPECT_GT(logic.stepsPerCpu[1], 0);
}

TEST_F(OsTest, BlockedTaskWokenByWaitQueue)
{
    WaitQueue wq;
    BurnLogic sleeper(100);
    sleeper.sleepAfter = 5;
    sleeper.wq = &wq;
    Task *t = kernel.createTask("sleeper", &sleeper);

    eq.runUntil(5'000'000);
    EXPECT_EQ(sleeper.steps, 5);
    EXPECT_EQ(t->state, TaskState::Blocked);

    // Wake from a synthetic softirq-ish context on CPU0.
    sim::LambdaEvent wake("wake", [this, &wq] {
        ExecContext ctx(kernel, kernel.processor(0), nullptr);
        kernel.wakeUpOne(ctx, wq);
    });
    eq.schedule(&wake, eq.now() + 1000);
    sleeper.sleepAfter = 0; // don't sleep again
    eq.runUntil(eq.now() + 5'000'000);
    EXPECT_GT(sleeper.steps, 5);
}

TEST_F(OsTest, CrossCpuWakeupSendsIpi)
{
    WaitQueue wq;
    BurnLogic sleeper(100);
    sleeper.sleepAfter = 1;
    sleeper.wq = &wq;
    Task *t = kernel.createTask("s", &sleeper, 0x2); // pinned CPU1

    // Give CPU1 a hog so it is not idle (idle CPUs are woken without
    // preemption pressure but still via IPI in our model).
    BurnLogic hog(3000);
    kernel.createTask("hog", &hog, 0x2);

    eq.runUntil(5'000'000);
    ASSERT_EQ(t->state, TaskState::Blocked);
    const double ipis0 =
        kernel.core(1).counters.ipisReceived.value();

    sim::LambdaEvent wake("wake", [this, &wq] {
        ExecContext ctx(kernel, kernel.processor(0), nullptr);
        kernel.wakeUpOne(ctx, wq); // waker CPU0, target CPU1
    });
    eq.schedule(&wake, eq.now() + 100);
    sleeper.sleepAfter = 0;
    eq.runUntil(eq.now() + 5'000'000);
    EXPECT_GT(kernel.core(1).counters.ipisReceived.value(), ipis0);
    EXPECT_GT(kernel.scheduler().wakeupsCrossCpu.value(), 0.0);
}

TEST_F(OsTest, IdleCpusAccumulateIdleCycles)
{
    // No tasks at all: both CPUs idle (timer ticks only).
    eq.runUntil(40'000'000);
    kernel.finalizeIdle(eq.now());
    for (int c = 0; c < 2; ++c) {
        const auto &pc = kernel.core(c).counters;
        EXPECT_GT(pc.idleCycles.value(), 30'000'000.0);
        EXPECT_LT(pc.utilization(), 0.05);
        // busy + idle covers the whole window (within a tick's slop).
        EXPECT_NEAR(pc.totalCycles(), 40'000'000.0, 1'000'000.0);
    }
}

TEST_F(OsTest, BusyCpuHasNoIdle)
{
    BurnLogic hog(10000);
    kernel.createTask("hog", &hog, 0x1);
    eq.runUntil(20'000'000);
    kernel.finalizeIdle(eq.now());
    EXPECT_GT(kernel.core(0).counters.utilization(), 0.95);
}

TEST_F(OsTest, TimerTicksChargeTimerBin)
{
    eq.runUntil(100'000'000); // 50 ms: several 10 ms ticks per CPU
    const auto cycles = kernel.accounting().byBin(
        prof::Bin::Timers, prof::Event::Cycles);
    EXPECT_GT(cycles, 0u);
    // Ticks are hardware interrupts: they flush the pipeline.
    EXPECT_GT(kernel.accounting().byFunc(prof::FuncId::TimerTick,
                                         prof::Event::MachineClears),
              2u);
}

TEST_F(OsTest, TimerListFiresOnArmedCpu)
{
    int fired_on = -1;
    kernel.timers().arm(1, 25'000'000, [&fired_on](ExecContext &ctx) {
        fired_on = ctx.cpuId();
    });
    eq.runUntil(60'000'000);
    EXPECT_EQ(fired_on, 1);
    EXPECT_EQ(kernel.timers().pendingCount(), 0u);
}

TEST_F(OsTest, TimerCancelPreventsFiring)
{
    bool fired = false;
    const TimerId id = kernel.timers().arm(
        0, 25'000'000, [&fired](ExecContext &) { fired = true; });
    EXPECT_TRUE(kernel.timers().armed(id));
    EXPECT_TRUE(kernel.timers().cancel(id));
    EXPECT_FALSE(kernel.timers().cancel(id));
    eq.runUntil(60'000'000);
    EXPECT_FALSE(fired);
}

TEST_F(OsTest, TimerResolutionIsTickGranular)
{
    sim::Tick fired_at = 0;
    kernel.timers().arm(0, 21'000'000, [&fired_at](ExecContext &ctx) {
        fired_at = ctx.proc.dispatchStart();
    });
    eq.runUntil(80'000'000);
    ASSERT_GT(fired_at, 0u);
    EXPECT_GE(fired_at, 21'000'000u);
    // Fires on the next 10ms tick of CPU0.
    EXPECT_LE(fired_at, 21'000'000u + config().timerTickCycles + 100000);
}

TEST_F(OsTest, IrqRoutingFollowsSmpAffinity)
{
    int handled_on = -1;
    int handled_count = 0;
    const int vec = kernel.irqController().registerVector(
        "testdev",
        [&](ExecContext &ctx) {
            handled_on = ctx.cpuId();
            ++handled_count;
            ctx.charge(prof::FuncId::IrqNic0, 50, {}, 1.0, 1);
        },
        prof::FuncId::IrqNic0);

    // Default: CPU0.
    EXPECT_EQ(kernel.irqController().routeOf(vec), 0);
    kernel.irqController().raise(vec);
    eq.runUntil(eq.now() + 100'000);
    EXPECT_EQ(handled_on, 0);

    kernel.irqController().setSmpAffinity(vec, 0x2);
    EXPECT_EQ(kernel.irqController().routeOf(vec), 1);
    kernel.irqController().raise(vec);
    eq.runUntil(eq.now() + 100'000);
    EXPECT_EQ(handled_on, 1);
    EXPECT_EQ(handled_count, 2);
    EXPECT_GT(kernel.core(1).counters.irqsReceived.value(), 0.0);
}

TEST_F(OsTest, RotatingIrqDistributionMovesTargets)
{
    const int vec = kernel.irqController().registerVector(
        "rot", [](ExecContext &) {}, prof::FuncId::IrqNic1);
    // Rotation walks within the smp_affinity mask; open it up to both
    // CPUs so the balancer actually has somewhere to go.
    kernel.irqController().setSmpAffinity(vec, 0x3);
    kernel.irqController().setRotation(1'000'000);
    std::set<sim::CpuId> seen;
    for (int i = 0; i < 10; ++i) {
        seen.insert(kernel.irqController().routeOf(vec));
        eq.runUntil(eq.now() + 1'500'000);
    }
    EXPECT_EQ(seen.size(), 2u);
}

TEST_F(OsTest, RotatingIrqDistributionRespectsMask)
{
    // A vector whose policy confines it to CPU1 must stay on CPU1 no
    // matter how long rotation runs.
    const int vec = kernel.irqController().registerVector(
        "rot-pinned", [](ExecContext &) {}, prof::FuncId::IrqNic2);
    kernel.irqController().setSmpAffinity(vec, 0x2);
    kernel.irqController().setRotation(1'000'000);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(kernel.irqController().routeOf(vec), 1);
        eq.runUntil(eq.now() + 1'500'000);
    }
}

TEST_F(OsTest, SoftirqRunsOnRaisingCpu)
{
    int ran_on = -1;
    kernel.processor(1).setSoftirqHandler(
        Softirq::NetRx,
        [&ran_on](ExecContext &ctx) { ran_on = ctx.cpuId(); });
    kernel.processor(1).raiseSoftirq(Softirq::NetRx);
    EXPECT_TRUE(kernel.processor(1).softirqPending(Softirq::NetRx));
    eq.runUntil(eq.now() + 100'000);
    EXPECT_EQ(ran_on, 1);
    EXPECT_FALSE(kernel.processor(1).softirqPending(Softirq::NetRx));
}

TEST_F(OsTest, LoadBalancerPullsFromOverloadedCpu)
{
    // 4 hogs forced to start on CPU0 (allowed everywhere, but created
    // while CPU1 is allowed too; force initial imbalance by pinning
    // then releasing).
    std::vector<std::unique_ptr<BurnLogic>> logics;
    std::vector<Task *> tasks;
    for (int i = 0; i < 4; ++i) {
        logics.push_back(std::make_unique<BurnLogic>(3000));
        tasks.push_back(kernel.createTask(sim::format("h%d", i),
                                          logics.back().get(), 0x1));
    }
    eq.runUntil(2'000'000);
    for (Task *t : tasks)
        t->affinityMask = 0x3; // now allowed on both
    eq.runUntil(60'000'000);
    EXPECT_GT(kernel.scheduler().migrations.value(), 0.0);
    int cpu1_steps = 0;
    for (auto &l : logics)
        cpu1_steps += l->stepsPerCpu[1];
    EXPECT_GT(cpu1_steps, 0) << "balancer never moved work to CPU1";
}

TEST_F(OsTest, TimersWithOneExpiryFireInArmOrder)
{
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        kernel.timers().arm(0, 25'000'000, [&order, i](ExecContext &) {
            order.push_back(i);
        });
    }
    eq.runUntil(60'000'000);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(OsTest, TimerCancelledByEarlierCallbackInSamePassDoesNotFire)
{
    TimerId later = invalidTimer;
    bool cancelled = false;
    bool laterFired = false;
    kernel.timers().arm(0, 25'000'000, [&](ExecContext &) {
        cancelled = kernel.timers().cancel(later);
    });
    later = kernel.timers().arm(
        0, 25'000'000, [&laterFired](ExecContext &) { laterFired = true; });
    eq.runUntil(60'000'000);
    EXPECT_TRUE(cancelled);
    EXPECT_FALSE(laterFired);
    EXPECT_EQ(kernel.timers().pendingCount(), 0u);
}

TEST_F(OsTest, TimerArmedDueByCallbackWaitsForNextPass)
{
    sim::Tick firstAt = 0;
    sim::Tick secondAt = 0;
    kernel.timers().arm(0, 25'000'000, [&](ExecContext &ctx) {
        firstAt = ctx.proc.dispatchStart();
        // Already due: expiry is the current pass's own time.
        kernel.timers().arm(0, firstAt, [&secondAt](ExecContext &ctx) {
            secondAt = ctx.proc.dispatchStart();
        });
    });
    eq.runUntil(100'000'000);
    ASSERT_GT(firstAt, 0u);
    EXPECT_GT(secondAt, firstAt);
}

TEST_F(OsTest, InvalidTimerIsNeverArmed)
{
    kernel.timers().arm(0, 25'000'000, [](ExecContext &) {});
    EXPECT_FALSE(kernel.timers().armed(invalidTimer));
    EXPECT_FALSE(kernel.timers().cancel(invalidTimer));
    EXPECT_EQ(kernel.timers().pendingCount(), 1u);
    eq.runUntil(60'000'000);
}

TEST_F(OsTest, WakePrefersIdlePreviousCpu)
{
    WaitQueue wq;
    BurnLogic sleeper(100);
    sleeper.sleepAfter = 3;
    sleeper.wq = &wq;
    kernel.createTask("s", &sleeper, 0x2); // establish prev = CPU1
    eq.runUntil(5'000'000);
    sleeper.sleepAfter = 0;
    // CPU1 idle; wake from CPU0: must stay on CPU1.
    sim::LambdaEvent wake("wake", [this, &wq] {
        ExecContext ctx(kernel, kernel.processor(0), nullptr);
        kernel.wakeUpOne(ctx, wq);
    });
    eq.schedule(&wake, eq.now() + 10);
    eq.runUntil(eq.now() + 2'000'000);
    EXPECT_EQ(sleeper.lastCpu, 1);
}

} // namespace
