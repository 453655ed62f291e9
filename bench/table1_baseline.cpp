/**
 * @file
 * Table 1: baseline characterization of the TCP stack — per functional
 * bin: % cycles, CPI, MPI (LLC misses/instr), % branches, % branches
 * mispredicted — for TX/RX x {64KB, 128B} x {no, full} affinity.
 */

#include <iostream>

#include "bench/bench_common.hh"

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

    std::printf("\n%s %s\n\n", bench::modeLabel(mode),
                size >= 1024 ? "64KB" : "128B");

    analysis::TableWriter t({"", "%Cyc(No)", "%Cyc(Full)", "CPI(No)",
                             "CPI(Full)", "MPI(No)", "MPI(Full)",
                             "%Br(No)", "%Br(Full)", "%BrMis(No)",
                             "%BrMis(Full)"});

    auto add = [&t](const std::string &label,
                    const core::BinMetrics &n,
                    const core::BinMetrics &f) {
        t.addRow({label, analysis::TableWriter::pct(n.pctCycles),
                  analysis::TableWriter::pct(f.pctCycles),
                  analysis::TableWriter::num(n.cpi),
                  analysis::TableWriter::num(f.cpi),
                  analysis::TableWriter::num(n.mpi, 4),
                  analysis::TableWriter::num(f.mpi, 4),
                  analysis::TableWriter::pct(n.pctBranches),
                  analysis::TableWriter::pct(f.pctBranches),
                  analysis::TableWriter::pct(n.pctBrMispred),
                  analysis::TableWriter::pct(f.pctBrMispred)});
    };

    // The paper's seven stack bins (User excluded like the paper's
    // "Overall ~99%" convention).
    for (std::size_t b = 0; b + 1 < prof::numBins; ++b) {
        add(std::string(prof::binName(static_cast<prof::Bin>(b))),
            no.bins[b], full.bins[b]);
    }
    add("Overall", no.overall, full.overall);
    t.print(std::cout);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    bench::banner("Table 1: Baseline TCP characterization", "Table 1");

    const core::ResultSet results =
        bench::runCampaign(bench::inDepthPoints());

    quadrant(results, workload::TtcpMode::Transmit, bench::largeSize);
    quadrant(results, workload::TtcpMode::Transmit, bench::smallSize);
    quadrant(results, workload::TtcpMode::Receive, bench::largeSize);
    quadrant(results, workload::TtcpMode::Receive, bench::smallSize);

    std::printf(
        "\nExpected shape: 64KB hotspots are engine/buf-mgmt/copies; "
        "128B hotspots are interface+engine; RX copies carry the "
        "giant CPI/MPI (DMA-cold rep-movl); locks/interface have the "
        "worst CPIs; branches ~10-20%% of instructions, mispredicts "
        "low.\n");
    return 0;
}
