/**
 * @file
 * Processor dispatch mechanics: softirq/task fairness (the ksoftirqd
 * rule), interrupt-before-task priority, forward progress, and the
 * estimated-now clock.
 */

#include <gtest/gtest.h>

#include "src/os/kernel.hh"
#include "src/sim/logging.hh"

using namespace na;
using namespace na::os;

namespace {

class ProcessorTest : public ::testing::Test
{
  protected:
    ProcessorTest() : kernel(&root, eq, config())
    {
        kernel.start();
    }

    static cpu::PlatformConfig
    config()
    {
        cpu::PlatformConfig c;
        c.numCpus = 1; // single CPU isolates dispatch ordering
        return c;
    }

    stats::Group root{nullptr, ""};
    sim::EventQueue eq;
    Kernel kernel;
};

/** Task that logs each step's sequence number into a shared journal. */
class JournalLogic : public TaskLogic
{
  public:
    JournalLogic(std::vector<char> &journal, char tag)
        : journal(journal), tag(tag)
    {
    }

    StepStatus
    step(ExecContext &ctx) override
    {
        journal.push_back(tag);
        ctx.charge(prof::FuncId::UserApp, 2000, {});
        return StepStatus::Continue;
    }

  private:
    std::vector<char> &journal;
    char tag;
};

TEST_F(ProcessorTest, SoftirqAlternatesWithTaskSteps)
{
    std::vector<char> journal;
    JournalLogic task(journal, 'T');
    kernel.createTask("t", &task);

    // A softirq handler that re-raises itself forever: without the
    // ksoftirqd fairness rule it would starve the task.
    kernel.processor(0).setSoftirqHandler(
        Softirq::NetRx, [this, &journal](ExecContext &ctx) {
            journal.push_back('S');
            ctx.charge(prof::FuncId::NetRxAction, 2000, {});
            ctx.proc.raiseSoftirq(Softirq::NetRx);
        });
    kernel.processor(0).raiseSoftirq(Softirq::NetRx);
    eq.runUntil(10'000'000);

    // Both made progress, roughly alternating.
    const auto t_count = std::count(journal.begin(), journal.end(), 'T');
    const auto s_count = std::count(journal.begin(), journal.end(), 'S');
    ASSERT_GT(t_count, 100);
    ASSERT_GT(s_count, 100);
    EXPECT_NEAR(static_cast<double>(t_count),
                static_cast<double>(s_count),
                static_cast<double>(s_count) * 0.2);
    // No run of more than 2 of the same kind (alternation).
    int run = 1;
    for (std::size_t i = 1; i < journal.size(); ++i) {
        run = journal[i] == journal[i - 1] ? run + 1 : 1;
        ASSERT_LE(run, 2) << "starvation at " << i;
    }
}

TEST_F(ProcessorTest, InterruptsPreemptTaskWork)
{
    std::vector<char> journal;
    JournalLogic task(journal, 'T');
    kernel.createTask("t", &task);

    const int vec = kernel.irqController().registerVector(
        "dev",
        [&journal](ExecContext &ctx) {
            journal.push_back('I');
            ctx.charge(prof::FuncId::IrqNic0, 100, {}, 1.0, 1);
        },
        prof::FuncId::IrqNic0);

    eq.runUntil(1'000'000);
    kernel.irqController().raise(vec);
    const std::size_t mark = journal.size();
    eq.runUntil(eq.now() + 1'000'000);
    // The ISR ran within a couple of dispatches of being raised.
    auto it = std::find(journal.begin() +
                            static_cast<std::ptrdiff_t>(mark),
                        journal.end(), 'I');
    ASSERT_NE(it, journal.end());
    EXPECT_LE(it - (journal.begin() + static_cast<std::ptrdiff_t>(mark)),
              2);
}

TEST_F(ProcessorTest, EstimatedNowAdvancesWithinDispatch)
{
    struct Probe : TaskLogic
    {
        sim::Tick before = 0;
        sim::Tick after = 0;
        StepStatus
        step(ExecContext &ctx) override
        {
            before = ctx.estimatedNow();
            ctx.charge(prof::FuncId::UserApp, 10000, {});
            after = ctx.estimatedNow();
            return StepStatus::Exited;
        }
    } probe;
    kernel.createTask("probe", &probe);
    eq.runUntil(5'000'000);
    EXPECT_GT(probe.after, probe.before);
    EXPECT_GE(probe.after - probe.before, 10000u);
}

TEST_F(ProcessorTest, IdleCpuWakesOnKick)
{
    // Nothing to do: the processor parks. A kick event at t wakes it.
    eq.runUntil(5'000'000);
    EXPECT_TRUE(kernel.processor(0).isIdle());
    bool ran = false;
    kernel.processor(0).setSoftirqHandler(
        Softirq::NetTx, [&ran](ExecContext &) { ran = true; });
    sim::LambdaEvent kick("kick", [this] {
        kernel.processor(0).raiseSoftirq(Softirq::NetTx);
    });
    eq.schedule(&kick, eq.now() + 1000);
    eq.runUntil(eq.now() + 100'000);
    EXPECT_TRUE(ran);
}

TEST_F(ProcessorTest, ExitedTasksLeaveTheSystem)
{
    struct OneShot : TaskLogic
    {
        int steps = 0;
        StepStatus
        step(ExecContext &ctx) override
        {
            ++steps;
            ctx.charge(prof::FuncId::UserApp, 100, {});
            return StepStatus::Exited;
        }
    } one;
    Task *t = kernel.createTask("one", &one);
    eq.runUntil(5'000'000);
    EXPECT_EQ(one.steps, 1);
    EXPECT_EQ(t->state, TaskState::Exited);
    EXPECT_TRUE(kernel.processor(0).isIdle());
}

} // namespace
