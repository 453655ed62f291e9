/**
 * @file
 * Shared scaffolding for the paper-reproduction benchmark binaries.
 *
 * Benches are declarative: build a sweep (core::SweepBuilder), run it
 * through the parallel campaign engine (core::Campaign), format tables
 * from the ResultSet. Environment knobs shared by every binary:
 *
 *   NA_CAMPAIGN_THREADS=N   worker threads (default: hardware)
 *   NA_CAMPAIGN_JSON=PATH   also export results to PATH as JSON
 *   NA_CAMPAIGN_JSONL=PATH  stream each completed point to PATH as a
 *                           JSONL record (crash-safe, resumable)
 */

#ifndef NETAFFINITY_BENCH_BENCH_COMMON_HH
#define NETAFFINITY_BENCH_BENCH_COMMON_HH

#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/table.hh"
#include "src/core/campaign.hh"
#include "src/core/env.hh"
#include "src/core/results_json.hh"
#include "src/core/sweep.hh"
#include "src/sim/logging.hh"

namespace na::bench {

/** Transaction sizes swept by the paper's Figures 3 and 4. */
constexpr std::array<std::uint32_t, 7> paperSizes = {
    128, 256, 1024, 4096, 8192, 16384, 65536};

/** The two extreme sizes the in-depth analysis uses. */
constexpr std::uint32_t smallSize = 128;
constexpr std::uint32_t largeSize = 65536;

/**
 * The paper's table column order (None, Proc, Irq, Full). Keyed on the
 * enum — never on the position within core::allAffinityModes — so an
 * enum or list reorder cannot silently swap table columns.
 */
constexpr std::array<core::AffinityMode, 4> columnOrder = {
    core::AffinityMode::None, core::AffinityMode::Proc,
    core::AffinityMode::Irq, core::AffinityMode::Full};

/**
 * The 56-point sweep behind Figures 3 and 4: {TX, RX} x paperSizes x
 * every affinity mode, in that order (point seeds derive from the
 * submission index, so the order is part of the result).
 */
inline std::vector<core::CampaignPoint>
fig3Points()
{
    return core::SweepBuilder()
        .modes({workload::TtcpMode::Transmit, workload::TtcpMode::Receive})
        .sizes(paperSizes)
        .affinities(core::allAffinityModes)
        .build();
}

/**
 * The 8-point in-depth sweep behind Tables 1, 3 and 5 and Figure 5:
 * {TX, RX} x {64KB, 128B} x {None, Full}, in that order.
 */
inline std::vector<core::CampaignPoint>
inDepthPoints()
{
    return core::SweepBuilder()
        .modes({workload::TtcpMode::Transmit, workload::TtcpMode::Receive})
        .sizes({largeSize, smallSize})
        .affinities({core::AffinityMode::None, core::AffinityMode::Full})
        .build();
}

/**
 * Run a campaign with the shared environment knobs applied: thread
 * count from NA_CAMPAIGN_THREADS (via Campaign::resolveThreads), an
 * optional JSON export to $NA_CAMPAIGN_JSON, and an optional JSONL
 * stream to $NA_CAMPAIGN_JSONL (unless the caller already set one).
 */
inline core::ResultSet
runCampaign(std::vector<core::CampaignPoint> points,
            core::Campaign::Options options = {})
{
    if (options.jsonlPath.empty()) {
        if (auto path = core::env::str("NA_CAMPAIGN_JSONL"))
            options.jsonlPath = *path;
    }
    core::ResultSet results =
        core::Campaign::run(std::move(points), options);
    if (auto path = core::env::str("NA_CAMPAIGN_JSON")) {
        // Not sim::warn: benches run with setQuiet(true), and a failed
        // export should never be silent.
        if (!core::writeResultsJsonFile(*path, results)) {
            std::fprintf(stderr,
                         "warning: could not write campaign results "
                         "to %s\n",
                         path->c_str());
        }
    }
    return results;
}

inline const char *
modeLabel(workload::TtcpMode m)
{
    return m == workload::TtcpMode::Transmit ? "TX" : "RX";
}

/** Standard banner for every bench binary. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("%s  (reproduces %s of Foong et al., ISPASS 2005)\n",
                what, paper_ref);
    std::printf("==================================================="
                "===========\n");
}

/**
 * Reject a command line for a bench whose only argument is --smoke:
 * print the usage line to stderr and return main's exit status.
 */
inline int
usage(const char *bin)
{
    std::fprintf(stderr, "usage: %s [--smoke]\n", bin);
    return 1;
}

} // namespace na::bench

#endif // NETAFFINITY_BENCH_BENCH_COMMON_HH
