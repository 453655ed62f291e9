/**
 * @file
 * Figure 5: performance impact indicators — % of run time attributed to
 * each architectural event using the paper's nominal P4 penalties
 * (machine clear 500, LLC miss 300, TC 20, L2 10, ITLB 30, DTLB 36,
 * branch mispredict 30, and a 3-wide retirement lower bound).
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "src/analysis/impact.hh"

using namespace na;

namespace {

void
block(const core::ResultSet &results, std::uint32_t size,
      const char *label)
{
    std::printf("\n%s\n\n", label);

    std::array<analysis::ImpactColumn, 4> cols;
    int i = 0;
    for (workload::TtcpMode mode :
         {workload::TtcpMode::Transmit, workload::TtcpMode::Receive}) {
        for (core::AffinityMode aff :
             {core::AffinityMode::None, core::AffinityMode::Full}) {
            cols[static_cast<std::size_t>(i)] =
                analysis::impactColumn(results.at(mode, size, aff));
            ++i;
        }
    }

    analysis::TableWriter t({"", "Cost", "Tx NoAff", "Tx FullAff",
                             "Rx NoAff", "Rx FullAff"});
    for (std::size_t row = 0; row < analysis::numImpactRows; ++row) {
        const auto r = static_cast<analysis::ImpactRow>(row);
        t.addRow({std::string(analysis::impactRowName(r)),
                  analysis::TableWriter::num(analysis::impactCost(r),
                                             r == analysis::ImpactRow::
                                                      Instructions
                                                 ? 2
                                                 : 0),
                  analysis::TableWriter::pct(cols[0].pctTime[row]),
                  analysis::TableWriter::pct(cols[1].pctTime[row]),
                  analysis::TableWriter::pct(cols[2].pctTime[row]),
                  analysis::TableWriter::pct(cols[3].pctTime[row])});
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    bench::banner("Figure 5: performance impact indicators", "Figure 5");

    const core::ResultSet results =
        bench::runCampaign(bench::inDepthPoints());

    block(results, bench::largeSize, "64KB");
    block(results, bench::smallSize, "128B");

    std::printf(
        "\nExpected shape: machine clears and LLC misses dominate every "
        "column (the paper's two primary events); the 128B no-affinity "
        "columns shrink dramatically under full affinity while 64KB "
        "keeps a large intrinsic clear component. Columns are "
        "first-order attributions and need not sum to 100%%.\n");
    return 0;
}
