/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/trace.hh"

using namespace na::sim;

namespace {

class Recorder : public Event
{
  public:
    Recorder(std::vector<int> &log, int id, int prio = defaultPrio)
        : Event("recorder", prio), log(log), id(id)
    {
    }

    void process() override { log.push_back(id); }

  private:
    std::vector<int> &log;
    int id;
};

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    Recorder b(log, 2);
    Recorder c(log, 3);
    eq.schedule(&b, 200);
    eq.schedule(&a, 100);
    eq.schedule(&c, 300);
    eq.runUntil(1000);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder low(log, 1, Event::schedulerPrio);
    Recorder hi(log, 2, Event::interruptPrio);
    Recorder mid1(log, 3, Event::defaultPrio);
    Recorder mid2(log, 4, Event::defaultPrio);
    eq.schedule(&low, 50);
    eq.schedule(&mid1, 50);
    eq.schedule(&hi, 50);
    eq.schedule(&mid2, 50);
    eq.runUntil(50);
    EXPECT_EQ(log, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, AdvancesNowToEventTime)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.schedule(&a, 123);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 123u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.schedule(&a, 100);
    EXPECT_TRUE(a.scheduled());
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.runUntil(200);
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, DescheduleIsIdempotent)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.deschedule(&a); // never scheduled: no-op
    eq.schedule(&a, 10);
    eq.deschedule(&a);
    eq.deschedule(&a);
    eq.runUntil(20);
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    Recorder b(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 150);
    eq.reschedule(&a, 200); // now after b
    eq.runUntil(300);
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(a.when(), maxTick);
}

TEST(EventQueue, EventCanRescheduleItself)
{
    EventQueue eq;
    int fires = 0;
    class Periodic : public Event
    {
      public:
        Periodic(EventQueue &eq, int &fires)
            : Event("periodic"), eq(eq), fires(fires)
        {
        }
        void
        process() override
        {
            if (++fires < 5)
                eq.schedule(this, eq.now() + 10);
        }

      private:
        EventQueue &eq;
        int &fires;
    } p(eq, fires);
    eq.schedule(&p, 10);
    eq.runUntil(1000);
    EXPECT_EQ(fires, 5);
    EXPECT_EQ(eq.processedCount(), 5u);
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    Recorder b(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 300);
    eq.runUntil(200);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 200u);
    eq.runUntil(300); // event exactly at the boundary fires
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    eq.deschedule(&b);
}

TEST(EventQueue, SchedulingAtCurrentTickWorks)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.runUntil(50);
    eq.schedule(&a, 50);
    eq.runUntil(50);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(SimObject, ProvidesNameAndClock)
{
    EventQueue eq;
    class Widget : public SimObject
    {
      public:
        using SimObject::SimObject;
    } w("sys.widget", eq);
    EXPECT_EQ(w.name(), "sys.widget");
    EXPECT_EQ(&w.eventQueue(), &eq);
    eq.runUntil(500);
    EXPECT_EQ(w.now(), 500u);
}

TEST(EventQueueDeath, SchedulingTwicePanics)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    eq.schedule(&a, 10);
    EXPECT_DEATH(eq.schedule(&a, 20), "scheduled twice");
    eq.deschedule(&a);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.runUntil(100);
    std::vector<int> log;
    Recorder a(log, 1);
    EXPECT_DEATH(eq.schedule(&a, 50), "in the past");
}

TEST(EventQueueDeath, DestroyingScheduledEventPanics)
{
    EventQueue eq;
    EXPECT_DEATH(
        {
            std::vector<int> log;
            Recorder a(log, 1);
            eq.schedule(&a, 10);
            // 'a' destroyed while scheduled.
        },
        "destroyed while scheduled");
}

TEST(EventQueue, DrainedStaleEntriesDoNotDisturbOrder)
{
    EventQueue eq;
    std::vector<int> log;
    Recorder a(log, 1);
    for (int i = 0; i < 50; ++i) {
        eq.schedule(&a, 100 + static_cast<Tick>(i));
        eq.deschedule(&a);
    }
    Recorder b(log, 2);
    eq.schedule(&b, 120);
    eq.schedule(&a, 110);
    eq.runUntil(200);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DescheduleStormDoesNotGrowHeapUnboundedly)
{
    EventQueue eq;
    std::vector<int> log;
    std::deque<Recorder> evs;
    for (int i = 0; i < 128; ++i)
        evs.emplace_back(log, i);

    Tick when = 1000;
    for (auto &ev : evs)
        eq.schedule(&ev, when += 10);

    // The Nic-moderation / Processor-tick pattern: every event is
    // repeatedly pulled forward. Each deschedule removes its heap slot,
    // so the heap holds exactly the scheduled events, whatever the
    // churn count.
    for (int round = 0; round < 1000; ++round) {
        for (auto &ev : evs)
            eq.deschedule(&ev);
        for (auto &ev : evs)
            eq.schedule(&ev, when += 10);
    }
    EXPECT_EQ(eq.size(), evs.size());
    EXPECT_EQ(eq.heapEntries(), eq.size());

    // All 128 still fire, in schedule order, exactly once.
    eq.runUntil(when + 1);
    EXPECT_EQ(log.size(), evs.size());
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(log[i], i);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, OrderAndProcessedCountSurviveCompaction)
{
    EventQueue eq;
    std::vector<int> log;
    std::deque<Recorder> evs;
    for (int i = 0; i < 200; ++i)
        evs.emplace_back(log, i);

    // Schedule everyone, cancel the odd ids, then churn the evens
    // through many in-place reschedules.
    for (int i = 0; i < 200; ++i)
        eq.schedule(&evs[i], 10'000 + static_cast<Tick>(i));
    for (int i = 1; i < 200; i += 2)
        eq.deschedule(&evs[i]);
    for (int round = 0; round < 50; ++round)
        for (int i = 0; i < 200; i += 2)
            eq.reschedule(&evs[i], 10'000 + static_cast<Tick>(i));
    EXPECT_EQ(eq.size(), 100u);
    EXPECT_EQ(eq.heapEntries(), eq.size());

    eq.runUntil(20'000);
    ASSERT_EQ(log.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(log[i], 2 * i); // ascending evens, no odd fired
    EXPECT_EQ(eq.processedCount(), 100u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.heapEntries(), 0u);
}

/**
 * Differential test: random schedule/deschedule/reschedule/runOne
 * calls against a reference ordered set of (when, priority, seq).
 * Some events are destroyed right after deschedule, so under ASan any
 * heap slot left pointing at a descheduled event is a use-after-free.
 */
TEST(EventQueue, MatchesReferenceOrderUnderRandomOps)
{
    using Key = std::tuple<Tick, int, std::uint64_t, int>;
    constexpr int numEvents = 48;
    constexpr int prios[] = {Event::interruptPrio, Event::defaultPrio,
                             Event::schedulerPrio};

    // Events outlive the queue, so a failed ASSERT below unwinds
    // without destroying a scheduled event.
    std::vector<int> log;
    std::vector<std::unique_ptr<Recorder>> evs(numEvents);
    EventQueue eq;
    Random rng(42);
    std::vector<std::optional<Key>> keyOf(numEvents);
    std::set<Key> ref;
    std::uint64_t seq = 0; // mirrors the queue's insertion counter

    auto put = [&](int id, Tick when) {
        if (keyOf[id])
            ref.erase(*keyOf[id]);
        keyOf[id] = Key{when, evs[id]->priority(), seq++, id};
        ref.insert(*keyOf[id]);
    };
    auto drop = [&](int id) {
        if (keyOf[id])
            ref.erase(*keyOf[id]);
        keyOf[id].reset();
    };

    for (int step = 0; step < 20'000; ++step) {
        const int id = static_cast<int>(rng.range(0, numEvents - 1));
        const Tick when = eq.now() + rng.range(0, 50);
        switch (rng.range(0, 3)) {
          case 0: // schedule (creating the event if needed)
            if (!evs[id])
                evs[id] = std::make_unique<Recorder>(
                    log, id, prios[rng.range(0, 2)]);
            if (!evs[id]->scheduled()) {
                eq.schedule(evs[id].get(), when);
                put(id, when);
            }
            break;
          case 1: // deschedule, sometimes destroying the event
            if (evs[id]) {
                eq.deschedule(evs[id].get());
                drop(id);
                if (rng.range(0, 1))
                    evs[id].reset();
            }
            break;
          case 2: // reschedule
            if (evs[id]) {
                eq.reschedule(evs[id].get(), when);
                put(id, when);
            }
            break;
          default: { // runOne
            const bool expectRun = !ref.empty();
            ASSERT_EQ(eq.runOne(), expectRun) << "step " << step;
            if (expectRun) {
                const Key top = *ref.begin();
                ASSERT_EQ(log.back(), std::get<3>(top)) << "step " << step;
                ASSERT_EQ(eq.now(), std::get<0>(top)) << "step " << step;
                drop(std::get<3>(top));
            }
            break;
          }
        }
        ASSERT_EQ(eq.size(), ref.size()) << "step " << step;
        ASSERT_EQ(eq.heapEntries(), eq.size()) << "step " << step;
    }

    // Drain: the rest pops in reference order.
    while (!ref.empty()) {
        const Key top = *ref.begin();
        ASSERT_TRUE(eq.runOne());
        ASSERT_EQ(log.back(), std::get<3>(top));
        drop(std::get<3>(top));
        ASSERT_EQ(eq.heapEntries(), eq.size());
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(Trace, FlagsGateEmission)
{
    setTraceFlagsFromString(""); // all off
    EXPECT_FALSE(traceEnabled(TraceFlag::Tcp));
    const auto before = traceLineCount();
    EventQueue eq;
    NA_TRACE_LOG(Tcp, eq, "must not appear %d", 1);
    EXPECT_EQ(traceLineCount(), before);

    setTraceFlag(TraceFlag::Tcp, true);
    EXPECT_TRUE(traceEnabled(TraceFlag::Tcp));
    EXPECT_FALSE(traceEnabled(TraceFlag::Nic));
    NA_TRACE_LOG(Tcp, eq, "appears %d", 2);
    EXPECT_EQ(traceLineCount(), before + 1);
    setTraceFlag(TraceFlag::Tcp, false);
}

TEST(Trace, SpecParsing)
{
    setTraceFlagsFromString("tcp,irq");
    EXPECT_TRUE(traceEnabled(TraceFlag::Tcp));
    EXPECT_TRUE(traceEnabled(TraceFlag::Irq));
    EXPECT_FALSE(traceEnabled(TraceFlag::Cache));
    setTraceFlagsFromString("all");
    EXPECT_TRUE(traceEnabled(TraceFlag::Cache));
    setTraceFlagsFromString("");
    EXPECT_FALSE(traceEnabled(TraceFlag::Cache));
}

} // namespace
