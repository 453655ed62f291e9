/**
 * @file
 * Extension: the Flow Director reordering pathology, end to end.
 *
 * Flow Director learns flow -> queue bindings from the SUT's own
 * transmissions. When the scheduler moves a server task mid-flow, the
 * next ACK leaves from the new CPU, the NIC re-learns the binding, and
 * frames already queued behind the old CPU race frames steered at the
 * new one: a reordering window. The paper's affinity story treats
 * placement as free; this bench prices the placement *churn*.
 *
 *  [1] migration ladder under Flow Director: the sender-hop driver
 *      (workload::FlowMixConfig::senderHopTicks) forcibly re-pins the
 *      server tasks at a swept rate. Every rung launches the same flow
 *      population, drains to zero, and harvests the whole-lifetime
 *      reordering costs: OOO arrival depth, reordering-window ticks,
 *      dup-ACK bursts, and Eifel-classified spurious retransmissions.
 *      Asserts the pathology scales with the migration rate — the
 *      spurious-retransmit rate is non-decreasing in hop rate and
 *      strictly positive at the fastest rung — while the no-hop rung
 *      stays spurious-free.
 *  [2] steering x migration sweep through the campaign engine:
 *      StaticPaper/RSS/FlowDirector with the hop driver off and on.
 *      RSS and the paper's static steering hash per flow and cannot
 *      reorder no matter how hard tasks hop (asserted: zero OOO
 *      arrivals whenever no RX ring dropped); only Flow Director pays
 *      for migrations.
 *  [3] seven-bin cycle accounting and impact indicators for Flow
 *      Director with and without migrations, resolving where the
 *      recovery work lands.
 *
 * --smoke (or NA_BENCH_FAST=1) shrinks the ladder and the sweep for
 * CI; the assertions are identical in both modes.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "src/analysis/impact.hh"
#include "src/core/system.hh"

using namespace na;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("  FAIL: %s\n", what.c_str());
    }
}

/** One migration-ladder rung's harvested reordering costs. */
struct Rung
{
    sim::Tick hopTicks = 0;
    std::uint64_t hops = 0;
    double hopsPerSec = 0;
    std::uint64_t migrations = 0;
    std::uint64_t completed = 0;
    double simSeconds = 0;
    double goodputMbps = 0;
    std::uint64_t oooArrivals = 0;
    std::uint64_t oooWindows = 0;
    std::uint64_t oooWindowTicks = 0;
    std::uint64_t dupAckBursts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t spurious = 0;
    std::uint64_t rxDrops = 0;
    double spuriousPerKflow = 0;
};

/**
 * Mix config tuned to surface the pathology: a couple of fat
 * long-lived flows keep the 1 GbE pipe serialization-bound (a frame
 * every ~12 us), and aggressive interrupt moderation (100 us ITR, the
 * high end of e1000 tuning guides) lets a re-steered flow strand
 * frames on the old queue long enough for the new queue to race past
 * them — the same window real Flow Director opens when its ATR table
 * chases a migrating sender.
 */
core::SystemConfig
reorderBase()
{
    core::SystemConfig cfg;
    cfg.platform.numCpus = 4;
    cfg.platform.seed = 4242;
    cfg.numConnections = 1;
    cfg.nic.irqGapTicks = 200'000; // 100 us ITR
    workload::FlowMixConfig mix;
    mix.maxConcurrentFlows = 2;
    mix.flowSizeMin = 128 * 1024;
    mix.flowSizeMax = 512 * 1024;
    mix.flowSizeShape = 1.1;
    mix.meanInterarrivalTicks = 60'000; // 30 us
    mix.listenBacklog = 256;
    cfg.workload = mix;
    cfg.steering.kind = net::SteeringKind::FlowDirector;
    cfg.steering.numQueues = 4;
    cfg.steering.flowTableSize = 4096;
    return cfg;
}

/** Launch @p total flows at hop period @p hop_ticks, drain, harvest. */
Rung
runRung(std::uint64_t total, sim::Tick hop_ticks)
{
    core::SystemConfig cfg = reorderBase();
    cfg.mix().totalFlows = total;
    cfg.mix().senderHopTicks = hop_ticks;
    core::System sys(cfg);
    sys.establishAll(1'000'000);
    sys.drainFlows();
    net::FlowClientPeer &client = sys.flowPeer(0);

    auto u64 = [](const stats::Scalar &s) {
        return static_cast<std::uint64_t>(s.value());
    };
    Rung r;
    r.hopTicks = hop_ticks;
    r.hops = sys.senderHopCount();
    r.completed = client.flowsCompletedCount();
    r.simSeconds = sim::ticksToSeconds(sys.eventQueue().now(),
                                       cfg.platform.freqHz);
    r.hopsPerSec =
        r.simSeconds > 0 ? static_cast<double>(r.hops) / r.simSeconds
                         : 0;
    r.goodputMbps =
        r.simSeconds > 0
            ? static_cast<double>(client.completedBytesSent()) * 8.0 /
                  r.simSeconds / 1.0e6
            : 0;
    r.migrations = sys.steering().stats().flowMigrations;
    const net::SocketPool &sp = sys.socketPool();
    r.oooArrivals = u64(sp.oooArrivals);
    r.oooWindows = u64(sp.oooWindows);
    r.oooWindowTicks = u64(sp.oooWindowTicks);
    // Recovery costs land on the bulk sender: the client boxes.
    r.dupAckBursts = u64(client.dupAckBursts);
    r.retransmits = u64(client.retransmits);
    r.spurious = u64(client.spuriousRetransmits);
    r.rxDrops = static_cast<std::uint64_t>(
        sys.nic(0).rxDropsRingFull.value());
    r.spuriousPerKflow =
        r.completed ? 1000.0 * static_cast<double>(r.spurious) /
                          static_cast<double>(r.completed)
                    : 0;

    const std::string tag = sim::format(
        "ladder[hop=%llu]",
        static_cast<unsigned long long>(hop_ticks));
    check(r.completed == total, tag + ": all launched flows completed");
    check(sys.driver().connectionTable().size() == 0,
          tag + ": connection table drained");
    check(sys.socketPool().inUse() == 0,
          tag + ": every pooled socket recycled");
    if (hop_ticks == 0) {
        check(r.hops == 0, tag + ": hop driver off means zero hops");
    } else {
        check(r.hops > 0, tag + ": hop driver re-pinned tasks");
    }
    // A spurious retransmission is by definition one the sender did
    // not need; the count can never exceed the retransmission count.
    check(r.spurious <= r.retransmits,
          tag + ": spurious retransmits are a subset of retransmits");
    return r;
}

void
migrationLadder(bool smoke)
{
    std::printf("\n[1] migration ladder under Flow Director\n\n");
    const std::uint64_t total = smoke ? 60 : 400;
    // Hop periods chosen inside the regime where faster hopping means
    // more re-learns: Flow Director only re-learns on task-context
    // transmissions, so hopping much faster than the server's ACK
    // cadence stops adding migrations (the binding is ACK-capped).
    const std::vector<sim::Tick> ladder =
        smoke ? std::vector<sim::Tick>{0, 4'000'000, 1'000'000}
              : std::vector<sim::Tick>{0, 16'000'000, 8'000'000,
                                       2'000'000};
    std::vector<Rung> rungs;
    analysis::TableWriter t({"hop period", "hops/s", "migrations",
                             "goodput Mb/s", "ooo", "windows",
                             "window ticks", "dup-ack bursts", "rtx",
                             "spurious", "spurious/kflow"});
    for (sim::Tick hop : ladder) {
        Rung r = runRung(total, hop);
        t.addRow({hop ? sim::format("%llu t",
                                    static_cast<unsigned long long>(hop))
                      : std::string("off"),
                  analysis::TableWriter::num(r.hopsPerSec, 0),
                  analysis::TableWriter::integer(r.migrations),
                  analysis::TableWriter::num(r.goodputMbps, 0),
                  analysis::TableWriter::integer(r.oooArrivals),
                  analysis::TableWriter::integer(r.oooWindows),
                  analysis::TableWriter::integer(r.oooWindowTicks),
                  analysis::TableWriter::integer(r.dupAckBursts),
                  analysis::TableWriter::integer(r.retransmits),
                  analysis::TableWriter::integer(r.spurious),
                  analysis::TableWriter::num(r.spuriousPerKflow, 2)});
        rungs.push_back(r);
    }
    t.print(std::cout);

    // The pathology must scale with the *migration* rate — the
    // variable the paper's placement story controls. The hop driver
    // is the lever, measured migrations are the independent variable:
    // order the rungs by observed migration count and the spurious
    // rate must never drop, with the top rung showing the signal
    // outright.
    std::vector<const Rung *> by_migrations;
    for (const Rung &r : rungs)
        by_migrations.push_back(&r);
    std::sort(by_migrations.begin(), by_migrations.end(),
              [](const Rung *a, const Rung *b) {
                  return a->migrations < b->migrations;
              });
    // One event of slack per comparison: with a few hundred flows per
    // rung a single spurious retransmit either side is sampling noise.
    const double one_event =
        total ? 1000.0 / static_cast<double>(total) : 0;
    for (std::size_t i = 1; i < by_migrations.size(); ++i) {
        check(by_migrations[i]->spuriousPerKflow + one_event + 1e-9 >=
                  by_migrations[i - 1]->spuriousPerKflow,
              sim::format("ladder: spurious rate non-decreasing in "
                          "migration rate (rung %zu)",
                          i));
    }
    check(by_migrations.back()->spuriousPerKflow >
              by_migrations.front()->spuriousPerKflow,
          "ladder: spurious rate rises from quietest to busiest rung");
    check(by_migrations.back()->spurious > 0,
          "ladder: highest migration rate draws spurious retransmits");
    check(by_migrations.back()->oooArrivals > 0,
          "ladder: highest migration rate reorders arrivals at the "
          "SUT");
    check(by_migrations.back()->migrations >
              by_migrations.front()->migrations,
          "ladder: hop driver actually moved the migration rate");
    std::printf("Forced sender migrations re-steer live flows; frames "
                "race across queues, the receiver dup-ACKs the gap, "
                "and the sender retransmits data that was merely "
                "late — goodput erodes as the hop rate climbs.\n");
}

/** Policy x hop sweep through the campaign engine. */
void
steeringSweep(bool smoke)
{
    std::printf("\n[2] steering policies under forced migrations\n\n");
    const sim::Tick fast_hop = 1'000'000; // 500 us
    struct PointSpec
    {
        net::SteeringKind kind;
        sim::Tick hop;
    };
    std::vector<PointSpec> specs;
    for (net::SteeringKind kind : net::allSteeringKinds) {
        specs.push_back({kind, 0});
        specs.push_back({kind, fast_hop});
    }

    std::vector<core::CampaignPoint> points;
    for (const PointSpec &s : specs) {
        core::SystemConfig cfg = reorderBase();
        cfg.steering.kind = s.kind;
        cfg.steering.numQueues =
            s.kind == net::SteeringKind::StaticPaper ? 1 : 4;
        cfg.mix().senderHopTicks = s.hop;
        core::CampaignPoint p;
        p.config = cfg;
        p.schedule.warmup = smoke ? 4'000'000 : 20'000'000;
        p.schedule.measure = smoke ? 200'000'000 : 800'000'000;
        p.label = sim::format(
            "%s hop=%s", std::string(steeringKindName(s.kind)).c_str(),
            s.hop ? "fast" : "off");
        points.push_back(std::move(p));
    }

    core::Campaign::Options opts;
    opts.seed = 42;
    opts.derivePointSeeds = false; // keep per-point seeds comparable
    const core::ResultSet rs = bench::runCampaign(points, opts);

    analysis::TableWriter t({"point", "BW (Mb/s)", "completed",
                             "migrations", "hops", "ooo",
                             "dup-ack bursts", "rtx", "spurious"});
    std::uint64_t fd_base_spurious = 0;
    std::uint64_t fd_fast_spurious = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const core::RunResult &r = rs.result(i);
        const PointSpec &s = specs[i];
        const std::string &label = rs.point(i).label;
        check(!r.failed, label + ": point not degraded");
        t.addRow({label,
                  analysis::TableWriter::num(r.throughputMbps, 0),
                  analysis::TableWriter::integer(r.flows.completed),
                  analysis::TableWriter::integer(r.flows.flowMigrations),
                  analysis::TableWriter::integer(r.reorder.senderHops),
                  analysis::TableWriter::integer(r.reorder.oooArrivals),
                  analysis::TableWriter::integer(
                      r.reorder.dupAckBursts),
                  analysis::TableWriter::integer(r.reorder.retransmits),
                  analysis::TableWriter::integer(
                      r.reorder.spuriousRetransmits)});
        check(r.flows.completed > 0, label + ": flows completed");
        check(r.reorder.spuriousRetransmits <= r.reorder.retransmits,
              label + ": spurious retransmits bounded by retransmits");
        if (s.hop == 0)
            check(r.reorder.senderHops == 0,
                  label + ": no hop driver, no hops");
        else
            check(r.reorder.senderHops > 0,
                  label + ": hop driver ran");
        const bool is_fd =
            s.kind == net::SteeringKind::FlowDirector;
        if (!is_fd) {
            // Hash-steered policies bind a flow to one queue for life:
            // however hard tasks hop, arrival order is preserved. The
            // claim only holds while no RX ring overflowed — a dropped
            // frame makes a genuine gap under any policy.
            if (r.rxDropsRingFull == 0) {
                check(r.reorder.oooArrivals == 0,
                      label + ": hash steering cannot reorder");
                check(r.reorder.spuriousRetransmits == 0,
                      label + ": no reordering, no spurious rtx");
            }
            check(r.flows.flowMigrations == 0,
                  label + ": no flow table, no migrations");
        } else {
            if (s.hop == 0)
                fd_base_spurious = r.reorder.spuriousRetransmits;
            else
                fd_fast_spurious = r.reorder.spuriousRetransmits;
            if (s.hop != 0)
                check(r.flows.flowMigrations > 0,
                      label + ": hops force flow re-steers");
        }
    }
    t.print(std::cout);
    check(fd_fast_spurious >= fd_base_spurious,
          "sweep: migrations do not reduce spurious retransmits");
    check(fd_fast_spurious > 0,
          "sweep: Flow Director under migrations draws spurious rtx");
    std::printf("Only Flow Director's learned bindings chase the "
                "sender's CPU; RSS and the paper's static steering "
                "stay reorder-free under the same forced "
                "migrations.\n");
}

/**
 * Where does the recovery work land? Seven-bin cycle shares and the
 * paper's impact indicators for Flow Director, hops off vs on.
 */
void
costBreakdown(bool smoke)
{
    std::printf("\n[3] Flow Director cycle accounting, hops off vs "
                "on\n\n");
    std::vector<core::CampaignPoint> points;
    for (sim::Tick hop : {sim::Tick{0}, sim::Tick{1'000'000}}) {
        core::SystemConfig cfg = reorderBase();
        cfg.mix().senderHopTicks = hop;
        core::CampaignPoint p;
        p.config = cfg;
        p.schedule.warmup = smoke ? 4'000'000 : 20'000'000;
        p.schedule.measure = smoke ? 200'000'000 : 800'000'000;
        p.label = hop ? "FD hop=fast" : "FD hop=off";
        points.push_back(std::move(p));
    }
    core::Campaign::Options opts;
    opts.seed = 42;
    opts.derivePointSeeds = false;
    const core::ResultSet rs = bench::runCampaign(points, opts);
    for (std::size_t i = 0; i < rs.size(); ++i)
        check(!rs.result(i).failed,
              rs.point(i).label + ": point not degraded");

    analysis::TableWriter bins({"bin", rs.point(0).label,
                                rs.point(1).label});
    for (prof::Bin b : prof::allBins) {
        std::vector<std::string> row = {std::string(prof::binName(b))};
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const core::RunResult &r = rs.result(i);
            const double share =
                r.overall.cycles
                    ? 100.0 *
                          static_cast<double>(
                              r.bins[static_cast<std::size_t>(b)]
                                  .cycles) /
                          static_cast<double>(r.overall.cycles)
                    : 0.0;
            row.push_back(analysis::TableWriter::pct(share));
        }
        bins.addRow(row);
    }
    bins.print(std::cout);

    std::printf("\nimpact indicators (%% of run time)\n\n");
    analysis::TableWriter imp({"event", "cost", rs.point(0).label,
                               rs.point(1).label});
    std::vector<analysis::ImpactColumn> cols;
    for (std::size_t i = 0; i < rs.size(); ++i)
        cols.push_back(analysis::impactColumn(rs.result(i)));
    for (std::size_t row = 0; row < analysis::numImpactRows; ++row) {
        const auto r = static_cast<analysis::ImpactRow>(row);
        std::vector<std::string> cells = {
            std::string(analysis::impactRowName(r)),
            analysis::TableWriter::num(
                analysis::impactCost(r),
                r == analysis::ImpactRow::Instructions ? 2 : 0)};
        for (const analysis::ImpactColumn &c : cols)
            cells.push_back(analysis::TableWriter::pct(c.pctTime[row]));
        imp.addRow(cells);
    }
    imp.print(std::cout);
    std::printf("Recovery is protocol work: the migration tax shows "
                "up in the TCP/engine and timer bins, not in copies "
                "or the driver.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    bool smoke = core::env::flag("NA_BENCH_FAST");
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") != 0)
            return bench::usage(argv[0]);
        smoke = true;
    }

    bench::banner("Flow Director reordering under forced migrations",
                  "the flow-steering extension");
    if (smoke)
        std::printf("(smoke mode: shrunk ladder and sweep)\n");

    migrationLadder(smoke);
    steeringSweep(smoke);
    costBreakdown(smoke);

    if (failures) {
        std::printf("\n%d check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall checks passed\n");
    return 0;
}
