/**
 * @file
 * Developer diagnostic: run one configuration and dump the full stats
 * hierarchy plus per-connection progress. Not part of the paper's
 * experiments; useful when calibrating the model.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "src/core/env.hh"
#include "src/core/experiment.hh"
#include "src/sim/logging.hh"

using namespace na;

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    core::SystemConfig cfg;
    cfg.ttcp().mode = workload::TtcpMode::Transmit;
    cfg.ttcp().msgSize = 65536;
    cfg.affinity = core::AffinityMode::None;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--rx"))
            cfg.ttcp().mode = workload::TtcpMode::Receive;
        else if (!std::strcmp(argv[i], "--full"))
            cfg.affinity = core::AffinityMode::Full;
        else if (!std::strcmp(argv[i], "--irq"))
            cfg.affinity = core::AffinityMode::Irq;
        else if (!std::strcmp(argv[i], "--proc"))
            cfg.affinity = core::AffinityMode::Proc;
        else if (!std::strcmp(argv[i], "--size") && i + 1 < argc) {
            try {
                cfg.ttcp().msgSize =
                    core::env::number<std::uint32_t>("--size", argv[++i]);
            } catch (const std::runtime_error &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 1;
            }
        }
    }

    core::System system(cfg);
    core::RunResult r = core::Experiment::measure(system);

    std::printf("throughput %.1f Mb/s   cost %.2f GHz/Gbps   util %.1f%%/%.1f%%\n",
                r.throughputMbps, r.ghzPerGbps,
                100 * r.utilPerCpu[0], 100 * r.utilPerCpu[1]);
    for (int i = 0; i < system.numConnections(); ++i) {
        std::printf("conn %d: app_sent=%llu peer_rcvd=%llu app_read=%llu "
                    "segsOut=%.0f segsIn=%.0f state=%s cwnd=%u\n",
                    i,
                    (unsigned long long)system.socket(i)
                        .tcp().appendedBytes(),
                    (unsigned long long)system.peer(i).bytesReceived(),
                    (unsigned long long)system.app(i).bytesRead(),
                    system.socket(i).segsOut.value(),
                    system.socket(i).segsIn.value(),
                    std::string(net::tcpStateName(
                                    system.socket(i).tcp().state()))
                        .c_str(),
                    system.socket(i).tcp().cwndBytes());
    }
    std::printf("%-10s %9s %10s %8s %8s %6s %7s\n", "bin", "cycles",
                "instr", "llc", "clears", "cpi", "%cyc");
    for (std::size_t b = 0; b < prof::numBins; ++b) {
        const core::BinMetrics &m = r.bins[b];
        std::printf("%-10s %9llu %10llu %8llu %8llu %6.2f %6.1f%%\n",
                    std::string(prof::binName(static_cast<prof::Bin>(b)))
                        .c_str(),
                    (unsigned long long)m.cycles,
                    (unsigned long long)m.instructions,
                    (unsigned long long)m.llcMisses,
                    (unsigned long long)m.machineClears, m.cpi,
                    m.pctCycles);
    }

    if (argc > 1 && !std::strcmp(argv[argc - 1], "--dump"))
        system.dumpStats(std::cout);
    return 0;
}
