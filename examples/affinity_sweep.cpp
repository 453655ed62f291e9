/**
 * @file
 * Parameterized affinity sweep: the user-facing version of the paper's
 * Figures 3/4 with knobs on the command line, run through the parallel
 * campaign engine.
 *
 * Usage:
 *   ./build/examples/affinity_sweep [--rx] [--conns N] [--cpus N]
 *                                   [--size BYTES] [--loss P]
 *                                   [--threads N] [--seed S]
 *                                   [--json PATH]
 *                                   [--steering static|rss|fd]
 *                                   [--queues N]
 *                                   [--interval-stats US]
 *                                   [--timeline PATH]
 *                                   [--fault-loss P] [--fault-corrupt P]
 *                                   [--fault-dup P] [--fault-reorder P]
 *                                   [--fault-irq-loss P] [--retries N]
 *                                   [--jsonl PATH] [--resume PATH]
 *                                   [--shard I/N]
 *
 * --interval-stats US records per-CPU per-bin counter deltas every US
 * simulated microseconds (exported in the --json file, schema v3).
 * --timeline PATH writes a Chrome trace-event JSON of the first sweep
 * point (load in chrome://tracing or Perfetto).
 * The --fault-* flags configure the seeded fault injector (both
 * directions for loss/dup/reorder, SUT-bound for corruption); --retries
 * bounds re-runs of a failing point before it is recorded as a
 * degraded PointFailure instead of aborting the sweep.
 *
 * --jsonl streams each completed point to PATH as a crash-safe JSONL
 * record; --resume PATH skips points already completed in a previous
 * stream (pass the same path to both to make the sweep restartable
 * in place); --shard I/N runs only this process's share of the sweep
 * (table rows owned by other shards read zero — merge the per-shard
 * streams for the full document). A progress line is printed to
 * stderr after each completed point.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/analysis/table.hh"
#include "src/core/campaign.hh"
#include "src/core/env.hh"
#include "src/core/results_json.hh"
#include "src/core/sweep.hh"
#include "src/sim/logging.hh"
#include "src/sim/timeline.hh"

using namespace na;

namespace {

/** @return @p text parsed strictly as a T; a bad value exits 1. */
template <typename T>
T
flagValue(const char *flag, const char *text)
{
    try {
        return core::env::number<T>(flag, text);
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    core::SystemConfig cfg;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    cfg.ttcp().msgSize = 65536;

    core::Campaign::Options options;
    const char *json_path = nullptr;
    const char *timeline_path = nullptr;

    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (!std::strcmp(flag, "--rx")) {
            cfg.ttcp().mode = workload::TtcpMode::Receive;
        } else if (!std::strcmp(argv[i], "--conns") && i + 1 < argc) {
            cfg.numConnections = flagValue<int>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--cpus") && i + 1 < argc) {
            cfg.platform.numCpus = flagValue<int>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--size") && i + 1 < argc) {
            cfg.ttcp().msgSize =
                flagValue<std::uint32_t>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--loss") && i + 1 < argc) {
            cfg.wireLossProb = flagValue<double>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            options.numThreads = flagValue<int>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            options.seed = flagValue<std::uint64_t>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--steering") && i + 1 < argc) {
            const char *kind = argv[++i];
            if (!std::strcmp(kind, "static")) {
                cfg.steering.kind = net::SteeringKind::StaticPaper;
            } else if (!std::strcmp(kind, "rss")) {
                cfg.steering.kind = net::SteeringKind::Rss;
            } else if (!std::strcmp(kind, "fd") ||
                       !std::strcmp(kind, "flow_director")) {
                cfg.steering.kind = net::SteeringKind::FlowDirector;
            } else {
                std::fprintf(stderr,
                             "unknown steering policy '%s' (want "
                             "static, rss, or fd)\n",
                             kind);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--queues") && i + 1 < argc) {
            cfg.steering.numQueues = flagValue<int>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--interval-stats") &&
                   i + 1 < argc) {
            cfg.statsIntervalUs = flagValue<double>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--timeline") && i + 1 < argc) {
            timeline_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--fault-loss") &&
                   i + 1 < argc) {
            const double p = flagValue<double>(flag, argv[++i]);
            cfg.faults.toPeer.lossProb = p;
            cfg.faults.toSut.lossProb = p;
        } else if (!std::strcmp(argv[i], "--fault-corrupt") &&
                   i + 1 < argc) {
            cfg.faults.toSut.corruptProb =
                flagValue<double>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--fault-dup") &&
                   i + 1 < argc) {
            const double p = flagValue<double>(flag, argv[++i]);
            cfg.faults.toPeer.dupProb = p;
            cfg.faults.toSut.dupProb = p;
        } else if (!std::strcmp(argv[i], "--fault-reorder") &&
                   i + 1 < argc) {
            const double p = flagValue<double>(flag, argv[++i]);
            cfg.faults.toPeer.reorderProb = p;
            cfg.faults.toSut.reorderProb = p;
        } else if (!std::strcmp(argv[i], "--fault-irq-loss") &&
                   i + 1 < argc) {
            cfg.faults.irqLossProb =
                flagValue<double>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--retries") && i + 1 < argc) {
            options.maxAttempts = flagValue<int>(flag, argv[++i]);
        } else if (!std::strcmp(argv[i], "--jsonl") && i + 1 < argc) {
            options.jsonlPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--resume") && i + 1 < argc) {
            options.resumeFrom = argv[++i];
        } else if (!std::strcmp(argv[i], "--shard") && i + 1 < argc) {
            const char *spec = argv[++i];
            const char *slash = std::strchr(spec, '/');
            if (!slash) {
                std::fprintf(stderr,
                             "--shard wants I/N, got '%s'\n", spec);
                return 2;
            }
            options.shardIndex =
                flagValue<int>(flag, std::string(spec, slash).c_str());
            options.shardCount = flagValue<int>(flag, slash + 1);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--rx] [--conns N] [--cpus N] "
                         "[--size BYTES] [--loss P] [--threads N] "
                         "[--seed S] [--json PATH] "
                         "[--steering static|rss|fd] [--queues N] "
                         "[--interval-stats US] [--timeline PATH] "
                         "[--fault-loss P] [--fault-corrupt P] "
                         "[--fault-dup P] [--fault-reorder P] "
                         "[--fault-irq-loss P] [--retries N] "
                         "[--jsonl PATH] [--resume PATH] "
                         "[--shard I/N]\n",
                         argv[0]);
            return 2;
        }
    }

    // Liveness: one stderr line per completed point, so long sweeps
    // (and resumed/sharded ones) are observable while running.
    options.progressHook = [](const core::Campaign::Progress &p) {
        std::fprintf(stderr,
                     "[%zu/%zu] %s%s%s\n", p.completed, p.total,
                     p.lastLabel.c_str(),
                     p.failures ? " (failures so far)" : "",
                     p.resumed ? " (resumed sweep)" : "");
    };

    // Chrome-trace capture of the first point: the tracer is attached
    // post-construction and the file written post-measurement, both on
    // the worker thread that owns the point.
    sim::TimelineTracer tracer;
    double tracer_freq = cfg.platform.freqHz;
    if (timeline_path) {
        options.systemHook = [&tracer, &tracer_freq](
                                 core::System &system,
                                 const core::CampaignPoint &,
                                 std::size_t index) {
            if (index != 0)
                return;
            tracer_freq = system.config().platform.freqHz;
            system.setTimelineTracer(&tracer);
        };
        options.resultHook = [&tracer, &tracer_freq, timeline_path](
                                 core::System &,
                                 const core::CampaignPoint &,
                                 std::size_t index, core::RunResult &) {
            if (index != 0)
                return;
            if (!tracer.writeJsonFile(timeline_path, tracer_freq)) {
                std::fprintf(stderr,
                             "warning: could not write timeline %s\n",
                             timeline_path);
            }
        };
    }

    std::printf("%s, %u-byte transactions, %d connections, %d CPUs\n\n",
                cfg.ttcp().mode == workload::TtcpMode::Transmit
                    ? "ttcp transmit"
                    : "ttcp receive",
                cfg.ttcp().msgSize, cfg.numConnections,
                cfg.platform.numCpus);
    if (cfg.steering.kind != net::SteeringKind::StaticPaper ||
        cfg.steering.numQueues != 1) {
        std::printf("steering: %s, %d RX queue(s) per NIC\n\n",
                    std::string(
                        net::steeringKindName(cfg.steering.kind))
                        .c_str(),
                    cfg.steering.numQueues);
    }
    if (cfg.faults.enabled()) {
        std::printf("fault injection: loss=%g corrupt=%g dup=%g "
                    "reorder=%g irq-loss=%g (max %d attempts/point)\n\n",
                    cfg.faults.toSut.lossProb,
                    cfg.faults.toSut.corruptProb,
                    cfg.faults.toSut.dupProb,
                    cfg.faults.toSut.reorderProb, cfg.faults.irqLossProb,
                    options.maxAttempts);
    }

    core::ResultSet results;
    try {
        results = core::Campaign::run(
            core::SweepBuilder()
                .base(cfg)
                .affinities(core::allAffinityModes)
                .build(),
            options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    analysis::TableWriter t({"Mode", "BW (Mb/s)", "GHz/Gbps", "Util",
                             "IPIs", "Migrations", "Clears/KB",
                             "LLC/KB"});
    for (core::AffinityMode m : core::allAffinityModes) {
        const core::RunResult &r =
            results.at(cfg.ttcp().mode, cfg.ttcp().msgSize, m);
        t.addRow({std::string(core::affinityName(m)),
                  analysis::TableWriter::num(r.throughputMbps, 0),
                  analysis::TableWriter::num(r.ghzPerGbps),
                  analysis::TableWriter::pct(100 * r.cpuUtil, 0),
                  analysis::TableWriter::integer(r.ipis),
                  analysis::TableWriter::integer(r.migrations),
                  analysis::TableWriter::num(
                      1024 *
                      r.eventsPerByte(prof::Event::MachineClears)),
                  analysis::TableWriter::num(
                      1024 * r.eventsPerByte(prof::Event::LlcMisses))});
    }
    t.print(std::cout);

    // Degraded points come back as structured records (their table rows
    // above read zero); surface each full failure, untruncated.
    if (results.failureCount() != 0) {
        std::printf("\n%zu point(s) degraded:\n", results.failureCount());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const core::RunResult &r = results.result(i);
            if (!r.failed)
                continue;
            std::printf("  %s [%s]\n    after %d attempts, tick %llu: "
                        "%s\n",
                        results.point(i).label.c_str(),
                        r.failure.configSummary.c_str(),
                        r.failure.attempts,
                        static_cast<unsigned long long>(
                            r.failure.ticksReached),
                        r.failure.reason.c_str());
        }
    }

    if (json_path) {
        if (!core::writeResultsJsonFile(json_path, results)) {
            std::fprintf(stderr, "error: could not write %s\n",
                         json_path);
            return 1;
        }
        std::printf("\nresults written to %s\n", json_path);
    }
    return results.failureCount() == 0 ? 0 : 1;
}
