/**
 * @file
 * Figure 4: normalized processing cost in GHz/Gbps (cycles per bit)
 * versus transaction size, per affinity mode — the paper's "cost"
 * metric accounting for CPU and throughput together.
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace na;

namespace {

void
sweep(const core::ResultSet &results, workload::TtcpMode mode)
{
    std::printf("\n%s Cost in GHz/Gbps\n\n", bench::modeLabel(mode));

    analysis::TableWriter t(
        {"Size(B)", "No Aff", "Proc Aff", "IRQ Aff", "Full Aff",
         "No/Full"});
    for (std::uint32_t size : bench::paperSizes) {
        std::vector<std::string> row{std::to_string(size)};
        for (core::AffinityMode m : bench::columnOrder) {
            row.push_back(analysis::TableWriter::num(
                results.at(mode, size, m).ghzPerGbps));
        }
        const double no =
            results.at(mode, size, core::AffinityMode::None).ghzPerGbps;
        const double full =
            results.at(mode, size, core::AffinityMode::Full).ghzPerGbps;
        row.push_back(
            analysis::TableWriter::num(full > 0 ? no / full : 0));
        t.addRow(std::move(row));
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    bench::banner("Figure 4: TCP processing costs", "Figure 4");

    const core::ResultSet results =
        bench::runCampaign(bench::fig3Points());

    sweep(results, workload::TtcpMode::Transmit);
    sweep(results, workload::TtcpMode::Receive);

    std::printf("\nExpected shape: full affinity cuts the 64KB cost by "
                "roughly a quarter (paper: 1.9 -> 1.4 for TX 64KB); the "
                "affinity benefit grows with transfer size.\n");
    return 0;
}
