/**
 * @file
 * Extension: many-flow churn through the FlowKey connection layer.
 *
 * The paper pins one long-lived bulk flow per NIC; server reality is a
 * churning population resolved through the ehash-style ConnectionMap
 * and the listen/accept path. This bench drives that machinery at
 * scale and asserts its conservation laws:
 *
 *  [1] churn ladder (64 -> 65k flows per point): every ladder rung
 *      runs arrivals to completion, then drains — asserting zero
 *      leaked connections (connection table and socket pool both
 *      empty), no lost flows (completed == launched), and telescoping
 *      byte totals (per-size-bucket client bytes sum exactly to the
 *      client's completed-byte counter, which equals the server's
 *      application byte counter);
 *  [2] steering sweep at high concurrency (10k-flow cap) across
 *      StaticPaper/RSS/FlowDirector under the campaign engine:
 *      zero degraded points, and Flow Director must report the
 *      flow-migration counters (its reordering window) that RSS
 *      structurally cannot.
 *
 * --smoke (or NA_BENCH_FAST=1) shrinks the ladder and the sweep for
 * CI; the assertions are identical in both modes. Stdout holds only
 * simulated quantities, so two runs print the same bytes; host cost
 * is perfbench's flow-churn workload.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
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

/** One churn-ladder rung's outcome. */
struct LadderPoint
{
    std::uint64_t totalFlows = 0;
    std::uint64_t completed = 0;
    double simSeconds = 0;
    double flowsPerSec = 0;
    std::uint64_t acceptDropsBacklog = 0;
    std::uint64_t deferred = 0;
};

core::SystemConfig
mixBase(int max_concurrent)
{
    core::SystemConfig cfg;
    cfg.platform.numCpus = 4;
    cfg.platform.seed = 4242;
    cfg.numConnections = 1;
    workload::FlowMixConfig mix;
    mix.maxConcurrentFlows = max_concurrent;
    mix.flowSizeMin = 512;
    mix.flowSizeMax = 32 * 1024;
    mix.flowSizeShape = 1.2;
    mix.meanInterarrivalTicks = 30'000; // 15 us: brisk churn
    mix.listenBacklog = 256;
    cfg.workload = mix;
    return cfg;
}

/**
 * Run one ladder rung: launch exactly @p total flows, drain, and
 * assert the conservation laws.
 */
LadderPoint
runLadderRung(std::uint64_t total)
{
    core::SystemConfig cfg = mixBase(/*max_concurrent=*/1024);
    cfg.mix().totalFlows = total;
    core::System sys(cfg);
    sys.establishAll(1'000'000);

    // Run until the whole population has drained on BOTH ends:
    // arrivals stop by themselves once totalFlows have been launched,
    // and the server must also see the final ACKs (still in flight
    // when the client finishes) and retire its children.
    net::FlowClientPeer &client = sys.flowPeer(0);
    const sim::Tick slice = 20'000'000; // 10 ms
    while (client.flowsCompletedCount() < total ||
           client.liveFlows() != 0 ||
           sys.driver().connectionTable().size() != 0 ||
           sys.socketPool().inUse() != 0) {
        sys.runFor(slice);
        if (sys.eventQueue().now() > 40'000'000'000ull) // 20 s simulated
            break;
    }

    LadderPoint p;
    p.totalFlows = total;
    p.completed = client.flowsCompletedCount();
    p.simSeconds = sim::ticksToSeconds(sys.eventQueue().now(),
                                       cfg.platform.freqHz);
    p.flowsPerSec =
        p.simSeconds > 0 ? static_cast<double>(p.completed) / p.simSeconds
                         : 0;
    p.acceptDropsBacklog = static_cast<std::uint64_t>(
        sys.driver().acceptDropsBacklog.value());
    p.deferred = static_cast<std::uint64_t>(
        client.deferredArrivals.value());

    const std::string tag = sim::format("ladder[%llu]",
                                        static_cast<unsigned long long>(
                                            total));
    // No lost flows, nothing live, nothing leaked.
    check(p.completed == total,
          tag + ": all launched flows completed");
    check(client.liveFlows() == 0, tag + ": client population drained");
    check(sys.driver().connectionTable().size() == 0,
          tag + ": connection table empty after drain");
    check(sys.socketPool().inUse() == 0,
          tag + ": every pooled socket recycled");
    // Telescoping byte totals: size-bucket sums == completed-byte
    // counter == server-side application reads.
    std::uint64_t bucket_bytes = 0;
    std::uint64_t bucket_flows = 0;
    for (const net::FlowSizeBucket &b : client.sizeBuckets()) {
        bucket_bytes += b.bytes;
        bucket_flows += b.flows;
    }
    check(bucket_flows == p.completed,
          tag + ": size buckets telescope to the completion count");
    check(bucket_bytes == client.completedBytesSent(),
          tag + ": size buckets telescope to the client byte total");
    check(sys.mixApp(0).bytesReceived() == client.completedBytesSent(),
          tag + ": server reads equal client completed bytes");
    return p;
}

void
churnLadder(bool smoke)
{
    std::printf("\n[1] churn ladder: accept/serve/close to completion\n\n");
    const std::vector<std::uint64_t> ladder =
        smoke ? std::vector<std::uint64_t>{64, 512}
              : std::vector<std::uint64_t>{64, 1024, 8192, 65536};
    analysis::TableWriter t({"flows", "flows/sec", "sim s",
                             "backlog drops", "deferred"});
    for (std::uint64_t total : ladder) {
        LadderPoint p = runLadderRung(total);
        t.addRow({analysis::TableWriter::integer(p.totalFlows),
                  analysis::TableWriter::num(p.flowsPerSec, 0),
                  analysis::TableWriter::num(p.simSeconds, 3),
                  analysis::TableWriter::integer(p.acceptDropsBacklog),
                  analysis::TableWriter::integer(p.deferred)});
    }
    t.print(std::cout);
    std::printf("Every rung drained to zero live connections with "
                "telescoping byte totals.\n");
}

/**
 * High-concurrency steering sweep through the campaign engine. Flow
 * Director's learn-on-transmit table must observe migrations (ACKs
 * leave from softirq CPUs, responses from the app's CPU, and the app
 * floats under non-static policies); RSS has no flow table at all.
 */
void
steeringSweep(bool smoke)
{
    std::printf("\n[2] steering at high flow concurrency\n\n");
    const int cap = smoke ? 256 : 10'000;
    std::vector<core::CampaignPoint> points;
    for (net::SteeringKind kind : net::allSteeringKinds) {
        core::SystemConfig cfg = mixBase(cap);
        cfg.mix().stormSize = smoke ? 32 : 512;
        cfg.mix().listenBacklog = 4096;
        cfg.mix().meanInterarrivalTicks = 100'000; // 50 us storms
        cfg.steering.kind = kind;
        cfg.steering.numQueues =
            kind == net::SteeringKind::StaticPaper ? 1 : 4;
        cfg.steering.flowTableSize = 32768;
        core::CampaignPoint p;
        p.config = cfg;
        p.schedule.warmup = smoke ? 4'000'000 : 20'000'000;
        p.schedule.measure = smoke ? 20'000'000 : 200'000'000;
        p.label = sim::format(
            "MIX %s", std::string(steeringKindName(kind)).c_str());
        points.push_back(std::move(p));
    }

    core::Campaign::Options opts;
    opts.seed = 42;
    opts.derivePointSeeds = false; // keep per-point seeds comparable
    const core::ResultSet rs = bench::runCampaign(points, opts);

    analysis::TableWriter t({"steering", "BW (Mb/s)", "accepted",
                             "completed", "migrations", "learns",
                             "ooo", "live@end"});
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const core::RunResult &r = rs.result(i);
        check(!r.failed, rs.point(i).label + ": point not degraded");
        t.addRow({rs.point(i).label,
                  analysis::TableWriter::num(r.throughputMbps, 0),
                  analysis::TableWriter::integer(r.flows.accepted),
                  analysis::TableWriter::integer(r.flows.completed),
                  analysis::TableWriter::integer(r.flows.flowMigrations),
                  analysis::TableWriter::integer(r.flows.flowLearns),
                  analysis::TableWriter::integer(r.flows.oooArrivals),
                  analysis::TableWriter::integer(
                      r.flows.liveConnections)});
        check(r.flows.accepted > 0,
              rs.point(i).label + ": SYNs accepted");
        const bool is_fd = rs.point(i).config.steering.kind ==
                           net::SteeringKind::FlowDirector;
        if (is_fd) {
            check(r.flows.flowLearns > 0,
                  "flow_director: learned flow entries");
            check(r.flows.flowMigrations > 0,
                  "flow_director: observed flow migrations");
        } else {
            check(r.flows.flowMigrations == 0,
                  rs.point(i).label + ": no flow table, no migrations");
        }
    }
    t.print(std::cout);
    std::printf("Flow Director re-steers flows whose transmit CPU "
                "moved; RSS hashes statically and cannot migrate (or "
                "reorder) anything.\n");
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

    bench::banner("Many-flow churn through the connection layer",
                  "the flow-steering extension");
    if (smoke)
        std::printf("(smoke mode: shrunk ladder and sweep)\n");

    churnLadder(smoke);
    steeringSweep(smoke);

    if (failures) {
        std::printf("\n%d check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall checks passed\n");
    return 0;
}
