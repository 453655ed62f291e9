/**
 * @file
 * Table 5: Spearman rank correlation between the per-bin cycle
 * improvements and the per-bin LLC / machine-clear improvements
 * (no -> full affinity), with the one-tailed p=0.05 significance test
 * the paper applies (critical value 0.377 for their df).
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "src/analysis/amdahl.hh"
#include "src/analysis/spearman.hh"

using namespace na;

namespace {

struct RowResult
{
    std::string label;
    analysis::SpearmanResult llc;
    analysis::SpearmanResult clears;
};

RowResult
quadrant(const core::ResultSet &results, workload::TtcpMode mode,
         std::uint32_t size)
{
    const core::RunResult &no =
        results.at(mode, size, core::AffinityMode::None);
    const core::RunResult &full =
        results.at(mode, size, core::AffinityMode::Full);
    const analysis::ImprovementTable imp =
        analysis::improvementTable(no, full);

    // Correlate across the seven stack bins (drop User, like the paper
    // works on stack bins only).
    std::vector<double> cyc;
    std::vector<double> llc;
    std::vector<double> clr;
    for (std::size_t b = 0; b + 1 < prof::numBins; ++b) {
        cyc.push_back(imp.cycles.perBin[b]);
        llc.push_back(imp.llcMisses.perBin[b]);
        clr.push_back(imp.machineClears.perBin[b]);
    }

    RowResult r;
    r.label = std::string(bench::modeLabel(mode)) + " " +
              (size >= 1024 ? "64KB" : "128B");
    r.llc = analysis::spearmanTest(cyc, llc);
    r.clears = analysis::spearmanTest(cyc, clr);
    return r;
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    bench::banner(
        "Table 5: correlating cycle improvements to event improvements",
        "Table 5");

    const core::ResultSet results =
        bench::runCampaign(bench::inDepthPoints());

    std::vector<RowResult> rows;
    rows.push_back(quadrant(results, workload::TtcpMode::Transmit,
                            bench::largeSize));
    rows.push_back(quadrant(results, workload::TtcpMode::Transmit,
                            bench::smallSize));
    rows.push_back(quadrant(results, workload::TtcpMode::Receive,
                            bench::largeSize));
    rows.push_back(quadrant(results, workload::TtcpMode::Receive,
                            bench::smallSize));

    std::printf("\nRank correlation of per-bin cycle improvement vs "
                "event improvement:\n\n");
    analysis::TableWriter t({"Rank correlation", "LLC", "Clears",
                             "significant?"});
    for (const RowResult &r : rows) {
        t.addRow({r.label, analysis::TableWriter::num(r.llc.rho),
                  analysis::TableWriter::num(r.clears.rho),
                  (r.llc.significant && r.clears.significant)
                      ? "both"
                      : (r.llc.significant
                             ? "LLC only"
                             : (r.clears.significant ? "clears only"
                                                     : "no"))});
    }
    t.print(std::cout);
    std::printf("\nCritical value for p=0.05, n=7 bins, 1-tail: %.3f "
                "(paper quotes 0.377 for their df)\n",
                analysis::spearmanCriticalValue(7));

    std::printf(
        "\nExpected shape: strong positive correlations (paper: "
        "0.62-0.96), statistically significant — improvements in LLC "
        "misses and machine clears predict improvements in time.\n");
    return 0;
}
