/**
 * @file
 * Unit tests for the exact event matrix and the sampling profiler.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/core/experiment.hh"
#include "src/prof/accounting.hh"
#include "src/prof/sampler.hh"

using namespace na;
using namespace na::prof;

namespace {

TEST(BinAccounting, AddAndQuery)
{
    BinAccounting acct(2);
    acct.add(0, FuncId::TcpSendmsg, Event::Cycles, 100);
    acct.add(1, FuncId::TcpSendmsg, Event::Cycles, 50);
    acct.add(0, FuncId::TcpAck, Event::Cycles, 7);
    acct.add(0, FuncId::AllocSkb, Event::Cycles, 3);

    EXPECT_EQ(acct.get(0, FuncId::TcpSendmsg, Event::Cycles), 100u);
    EXPECT_EQ(acct.byFunc(FuncId::TcpSendmsg, Event::Cycles), 150u);
    EXPECT_EQ(acct.byBin(Bin::Engine, Event::Cycles), 157u);
    EXPECT_EQ(acct.byBin(Bin::BufMgmt, Event::Cycles), 3u);
    EXPECT_EQ(acct.byBinCpu(0, Bin::Engine, Event::Cycles), 107u);
    EXPECT_EQ(acct.total(Event::Cycles), 160u);
    EXPECT_EQ(acct.totalCpu(1, Event::Cycles), 50u);
    EXPECT_EQ(acct.total(Event::LlcMisses), 0u);
}

TEST(BinAccounting, ZeroCountIsIgnored)
{
    BinAccounting acct(1);
    acct.add(0, FuncId::TcpAck, Event::Branches, 0);
    EXPECT_EQ(acct.total(Event::Branches), 0u);
}

TEST(BinAccounting, ResetClearsEverything)
{
    BinAccounting acct(2);
    acct.add(1, FuncId::CopyToUser, Event::LlcMisses, 9);
    acct.reset();
    EXPECT_EQ(acct.total(Event::LlcMisses), 0u);
}

TEST(BinAccounting, AddAllMatchesOneAddPerEvent)
{
    struct Call
    {
        sim::CpuId cpu;
        FuncId func;
        Event ev;
        std::uint64_t n;
        bool
        operator==(const Call &o) const
        {
            return cpu == o.cpu && func == o.func && ev == o.ev && n == o.n;
        }
    };
    struct Recorder : Listener
    {
        std::vector<Call> calls;
        void
        onEvents(sim::CpuId cpu, FuncId func, Event ev,
                 std::uint64_t n) override
        {
            calls.push_back({cpu, func, ev, n});
        }
    };
    // Zero counts at the ends and in the middle must be skipped alike.
    const EventCounts rows[] = {
        {0, 3, 0, 5, 0, 0, 7, 1, 0, 0},
        {12, 0, 4, 0, 9, 2, 0, 0, 6, 8},
        {},
    };
    BinAccounting one_by_one(2);
    BinAccounting all_at_once(2);
    Recorder by_add;
    Recorder by_add_all;
    one_by_one.setListener(&by_add);
    all_at_once.setListener(&by_add_all);
    for (const EventCounts &row : rows) {
        for (sim::CpuId cpu : {1, 0}) {
            for (Event ev : allEvents) {
                one_by_one.add(cpu, FuncId::TcpAck, ev,
                               row[static_cast<std::size_t>(ev)]);
            }
            all_at_once.addAll(cpu, FuncId::TcpAck, row);
        }
    }
    EXPECT_EQ(by_add_all.calls, by_add.calls);
    EXPECT_EQ(by_add.calls.size(), 2u * (4 + 6));
    for (sim::CpuId cpu : {0, 1}) {
        for (std::size_t f = 0; f < numFuncs; ++f) {
            for (Event ev : allEvents) {
                const auto func = static_cast<FuncId>(f);
                EXPECT_EQ(all_at_once.get(cpu, func, ev),
                          one_by_one.get(cpu, func, ev));
            }
        }
    }
    EXPECT_EQ(all_at_once.get(0, FuncId::TcpAck, Event::Cycles), 12u);
}

TEST(BinAccountingDeath, AddAllBadCpuPanics)
{
    BinAccounting acct(2);
    EXPECT_DEATH(acct.addAll(2, FuncId::TcpAck, EventCounts{}), "bad cpu");
}

TEST(BinAccountingDeath, BadCpuPanics)
{
    BinAccounting acct(2);
    EXPECT_DEATH(acct.add(2, FuncId::TcpAck, Event::Cycles, 1),
                 "bad cpu");
}

TEST(BinAccounting, ListenerSeesEveryPosting)
{
    struct Probe : Listener
    {
        std::uint64_t total = 0;
        int calls = 0;
        void
        onEvents(sim::CpuId, FuncId, Event, std::uint64_t n) override
        {
            total += n;
            ++calls;
        }
    } probe;

    BinAccounting acct(1);
    acct.setListener(&probe);
    acct.add(0, FuncId::TcpAck, Event::Cycles, 10);
    acct.add(0, FuncId::TcpAck, Event::Cycles, 5);
    acct.setListener(nullptr);
    acct.add(0, FuncId::TcpAck, Event::Cycles, 99);
    EXPECT_EQ(probe.calls, 2);
    EXPECT_EQ(probe.total, 15u);
}

TEST(SampleProfiler, SamplesAtConfiguredMeanRate)
{
    SampleProfiler prof(1, /*seed=*/3);
    prof.setSamplingInterval(Event::Cycles, 100);
    prof.setSkidProbability(0.0);

    BinAccounting acct(1);
    acct.setListener(&prof);
    for (int i = 0; i < 10000; ++i)
        acct.add(0, FuncId::TcpAck, Event::Cycles, 10); // 100k events
    // Jittered sampling: ~1000 samples expected.
    const double got = static_cast<double>(
        prof.samples(0, FuncId::TcpAck, Event::Cycles));
    EXPECT_NEAR(got, 1000.0, 100.0);
    EXPECT_EQ(prof.totalSamples(0, Event::Cycles),
              static_cast<std::uint64_t>(got));
}

TEST(SampleProfiler, UnconfiguredEventsIgnored)
{
    SampleProfiler prof(1);
    BinAccounting acct(1);
    acct.setListener(&prof);
    acct.add(0, FuncId::TcpAck, Event::Branches, 100000);
    EXPECT_EQ(prof.totalSamples(0, Event::Branches), 0u);
}

TEST(SampleProfiler, SkidAttributesToNextFunction)
{
    SampleProfiler prof(1, /*seed=*/5);
    prof.setSamplingInterval(Event::Cycles, 10);
    prof.setSkidProbability(1.0); // every sample skids
    BinAccounting acct(1);
    acct.setListener(&prof);
    acct.add(0, FuncId::TcpAck, Event::Cycles, 10);      // sample skids
    acct.add(0, FuncId::CopyToUser, Event::Cycles, 10);  // lands here
    EXPECT_EQ(prof.samples(0, FuncId::TcpAck, Event::Cycles), 0u);
    EXPECT_GE(prof.samples(0, FuncId::CopyToUser, Event::Cycles), 1u);
}

TEST(SampleProfiler, FinalizeFlushesPendingSkidToLastFunction)
{
    SampleProfiler prof(1, /*seed=*/5);
    prof.setSamplingInterval(Event::Cycles, 10);
    prof.setSkidProbability(1.0); // every sample skids
    BinAccounting acct(1);
    acct.setListener(&prof);
    // Plenty of events, but no later function ever runs: every sample
    // sits in the skid queue and the totals read zero — the bug this
    // guards against is those samples silently vanishing at run end.
    acct.add(0, FuncId::TcpAck, Event::Cycles, 1000);
    EXPECT_EQ(prof.totalSamples(0, Event::Cycles), 0u);

    prof.finalize();
    const std::uint64_t flushed = prof.totalSamples(0, Event::Cycles);
    EXPECT_GT(flushed, 0u);
    EXPECT_EQ(prof.samples(0, FuncId::TcpAck, Event::Cycles), flushed);

    // Idempotent: a second finalize has nothing left to book.
    prof.finalize();
    EXPECT_EQ(prof.totalSamples(0, Event::Cycles), flushed);
}

TEST(SampleProfiler, SampledDistributionTracksExact)
{
    SampleProfiler prof(1, 42);
    prof.setSamplingInterval(Event::Cycles, 50);
    prof.setSkidProbability(0.1);
    BinAccounting acct(1);
    acct.setListener(&prof);
    // 70%/30% split over many postings.
    for (int i = 0; i < 10000; ++i) {
        acct.add(0, FuncId::TcpSendmsg, Event::Cycles, 7);
        acct.add(0, FuncId::TcpAck, Event::Cycles, 3);
    }
    const double total =
        static_cast<double>(prof.totalSamples(0, Event::Cycles));
    ASSERT_GT(total, 100.0);
    const double frac =
        static_cast<double>(
            prof.samples(0, FuncId::TcpSendmsg, Event::Cycles)) /
        total;
    EXPECT_NEAR(frac, 0.7, 0.05);
}

TEST(SampleProfiler, TopFunctionsSortedDescending)
{
    SampleProfiler prof(2);
    prof.setSamplingInterval(Event::MachineClears, 1);
    prof.setSkidProbability(0.0);
    BinAccounting acct(2);
    acct.setListener(&prof);
    acct.add(0, FuncId::TcpAck, Event::MachineClears, 5);
    acct.add(0, FuncId::TcpSendmsg, Event::MachineClears, 9);
    acct.add(1, FuncId::CopyToUser, Event::MachineClears, 2);

    auto top = prof.topFunctions(0, Event::MachineClears, 10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].func, FuncId::TcpSendmsg);
    EXPECT_GE(top[0].samples, top[1].samples);
    EXPECT_EQ(top[1].func, FuncId::TcpAck);
    const double total = static_cast<double>(
        prof.totalSamples(0, Event::MachineClears));
    EXPECT_NEAR(top[0].percent,
                100.0 * static_cast<double>(top[0].samples) / total,
                0.01);

    auto top1 = prof.topFunctions(1, Event::MachineClears, 1);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].func, FuncId::CopyToUser);
}

TEST(SampleProfiler, ResetZeroesSamples)
{
    SampleProfiler prof(1);
    prof.setSamplingInterval(Event::Cycles, 1);
    BinAccounting acct(1);
    acct.setListener(&prof);
    acct.add(0, FuncId::TcpAck, Event::Cycles, 10);
    prof.reset();
    EXPECT_EQ(prof.totalSamples(0, Event::Cycles), 0u);
}

} // namespace

namespace {

TEST(SampleProfiler, SystemLevelSamplingTracksExactBinShares)
{
    // The paper's methodology check: the Oprofile stand-in's sampled
    // cycle distribution must match the exact accounting within a few
    // percent over a full experiment run.
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    cfg.ttcp().msgSize = 65536;
    core::System sys(cfg);

    SampleProfiler profiler(sys.kernel().numCpus(), 7);
    profiler.setSamplingInterval(Event::Cycles, 20'000);
    profiler.setSkidProbability(0.1);
    sys.kernel().accounting().setListener(&profiler);

    core::Experiment::measure(sys);

    auto &acct = sys.kernel().accounting();
    const double exact_total =
        static_cast<double>(acct.total(Event::Cycles));
    double sampled_total = 0;
    for (int c = 0; c < sys.kernel().numCpus(); ++c)
        sampled_total +=
            static_cast<double>(profiler.totalSamples(c, Event::Cycles));
    ASSERT_GT(sampled_total, 1000.0);

    for (Bin bin : allBins) {
        const double exact_share =
            static_cast<double>(acct.byBin(bin, Event::Cycles)) /
            exact_total;
        double sampled = 0;
        for (std::size_t f = 0; f < numFuncs; ++f) {
            if (funcDesc(static_cast<FuncId>(f)).bin != bin)
                continue;
            for (int c = 0; c < sys.kernel().numCpus(); ++c) {
                sampled += static_cast<double>(profiler.samples(
                    c, static_cast<FuncId>(f), Event::Cycles));
            }
        }
        const double sampled_share = sampled / sampled_total;
        EXPECT_NEAR(sampled_share, exact_share, 0.05)
            << "bin " << binName(bin);
    }
}

TEST(PerfCounters, AgreeWithAccountingMatrixPerCpu)
{
    // Every charge posts both the per-CPU counters and one accounting
    // row, and every asynchronous clear posts both as well; after a
    // measured run the two views of each event must match exactly. The
    // paper's 8 connections make some reschedule IPIs land on a busy
    // CPU, so the IPI clear path is covered too.
    core::SystemConfig cfg;
    cfg.ttcp().mode = workload::TtcpMode::Receive;
    cfg.ttcp().msgSize = 4096;
    core::System sys(cfg);
    core::RunSchedule sched;
    sched.warmup = 10'000'000; // 5 ms
    sched.measure = 20'000'000; // 10 ms
    core::Experiment::measure(sys, sched);

    const BinAccounting &acct = sys.kernel().accounting();
    ASSERT_EQ(sys.kernel().numCpus(), 2);
    for (int c = 0; c < sys.kernel().numCpus(); ++c) {
        const cpu::PerfCounters &pc = sys.kernel().core(c).counters;
        const struct
        {
            const stats::Scalar &counter;
            Event ev;
        } pairs[] = {
            {pc.busyCycles, Event::Cycles},
            {pc.instructions, Event::Instructions},
            {pc.branches, Event::Branches},
            {pc.brMispredicts, Event::BrMispredicts},
            {pc.llcMisses, Event::LlcMisses},
            {pc.l2Misses, Event::L2Misses},
            {pc.tcMisses, Event::TcMisses},
            {pc.itlbMisses, Event::ItlbMisses},
            {pc.dtlbMisses, Event::DtlbMisses},
            {pc.machineClears, Event::MachineClears},
        };
        for (const auto &p : pairs) {
            EXPECT_EQ(static_cast<std::uint64_t>(p.counter.value()),
                      acct.totalCpu(c, p.ev))
                << "cpu " << c << " event " << eventName(p.ev);
        }
        EXPECT_GT(acct.totalCpu(c, Event::Cycles), 0u) << "cpu " << c;
        EXPECT_GT(acct.totalCpu(c, Event::MachineClears), 0u)
            << "cpu " << c;
    }
}

} // namespace
