/**
 * @file
 * Table 3: relating improvements to events. For each of the four
 * quadrants (TX/RX x 64KB/128B), shows the no-affinity baseline per bin
 * (% time, CPI, MPI) and the Amdahl-derived share of overall
 * improvement in cycles, LLC misses, and machine clears contributed by
 * each bin when going to full affinity.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "src/analysis/amdahl.hh"

using namespace na;

namespace {

void
quadrant(const core::ResultSet &results, workload::TtcpMode mode,
         std::uint32_t size)
{
    const core::RunResult &no =
        results.at(mode, size, core::AffinityMode::None);
    const core::RunResult &full =
        results.at(mode, size, core::AffinityMode::Full);
    const analysis::ImprovementTable imp =
        analysis::improvementTable(no, full);

    std::printf("\n%s %s, no affinity baseline -> improvements "
                "(no -> full)\n\n",
                bench::modeLabel(mode), size >= 1024 ? "64KB" : "128B");

    analysis::TableWriter t({"Functional bin", "%Time", "CPI",
                             "MPIx10-3", "Cycles", "LLC", "Clears"});
    for (std::size_t b = 0; b + 1 < prof::numBins; ++b) {
        const core::BinMetrics &m = no.bins[b];
        t.addRow({std::string(prof::binName(static_cast<prof::Bin>(b))),
                  analysis::TableWriter::pct(m.pctCycles),
                  analysis::TableWriter::num(m.cpi, 1),
                  analysis::TableWriter::num(m.mpi * 1000, 1),
                  analysis::TableWriter::pct(imp.cycles.perBin[b]),
                  analysis::TableWriter::pct(imp.llcMisses.perBin[b]),
                  analysis::TableWriter::pct(
                      imp.machineClears.perBin[b])});
    }
    t.addRow({"Overall", "", analysis::TableWriter::num(no.overall.cpi, 1),
              analysis::TableWriter::num(no.overall.mpi * 1000, 1),
              analysis::TableWriter::pct(imp.cycles.overall),
              analysis::TableWriter::pct(imp.llcMisses.overall),
              analysis::TableWriter::pct(imp.machineClears.overall)});
    t.print(std::cout);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    bench::banner("Table 3: relating improvements to events", "Table 3");

    const core::ResultSet results =
        bench::runCampaign(bench::inDepthPoints());

    quadrant(results, workload::TtcpMode::Transmit, bench::largeSize);
    quadrant(results, workload::TtcpMode::Transmit, bench::smallSize);
    quadrant(results, workload::TtcpMode::Receive, bench::largeSize);
    quadrant(results, workload::TtcpMode::Receive, bench::smallSize);

    std::printf(
        "\nExpected shape: ~20%% overall cycle improvement at 64KB and "
        "~9%% at 128B, concentrated in the TCP engine and buffer "
        "management; copies barely improve (TX copies run in process "
        "context, RX copies are DMA-cold either way); machine-clear "
        "improvements are largest for 128B (interrupt/IPI dominated).\n");
    return 0;
}
