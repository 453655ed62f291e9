/**
 * @file
 * Figure 3: TX and RX bandwidth (lines) and CPU utilization (bars)
 * versus transaction size for the four affinity modes.
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace na;

namespace {

void
sweep(const core::ResultSet &results, workload::TtcpMode mode)
{
    std::printf("\n%s Bandwidth vs CPU Utilization "
                "(8 conns, 8 GbE NICs, 2 CPUs)\n\n",
                bench::modeLabel(mode));

    analysis::TableWriter t({"Size(B)", "NoAff BW", "Proc BW", "IRQ BW",
                             "Full BW", "NoAff CPU", "Proc CPU",
                             "IRQ CPU", "Full CPU"});
    for (std::uint32_t size : bench::paperSizes) {
        std::vector<std::string> row{std::to_string(size)};
        for (core::AffinityMode m : bench::columnOrder) {
            row.push_back(analysis::TableWriter::num(
                              results.at(mode, size, m).throughputMbps,
                              0) +
                          " Mb/s");
        }
        for (core::AffinityMode m : bench::columnOrder) {
            row.push_back(analysis::TableWriter::pct(
                100.0 * results.at(mode, size, m).cpuUtil));
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    bench::banner("Figure 3: TCP CPU utilization and throughput",
                  "Figure 3");

    const core::ResultSet results =
        bench::runCampaign(bench::fig3Points());

    sweep(results, workload::TtcpMode::Transmit);
    sweep(results, workload::TtcpMode::Receive);

    std::printf("\nExpected shape: IRQ and Full affinity lift "
                "throughput (up to ~25-30%% at large sizes); Proc "
                "affinity alone tracks No affinity; utilization stays "
                "near 100%%.\n");
    return 0;
}
