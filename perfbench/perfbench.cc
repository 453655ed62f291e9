/**
 * @file
 * Simulator-cost benchmark: what it costs the host to produce the
 * paper's results, end to end and per layer.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --self-test
 *   perfbench --workload NAME --write-reference FILE
 *
 * Run from the repository root: references are read from
 * perfbench/reference/ and JSONL streams go to .bench_build/out/.
 *
 * Workloads (see README.md for why each exists):
 *   ttcp-tx     transmit half of Figure 3: 7 sizes x 4 affinity modes,
 *               2 CPUs, 8 connections
 *   ttcp-rx     receive half of the same sweep, same settings
 *   flow-churn  the ext_flows churn configuration (4 CPUs, 1024-flow
 *               cap, bounded-Pareto 512 B - 32 KB flows) at a 47.5 us
 *               mean interarrival, run to a fixed flow count and
 *               drained
 *
 * --trace 0 repeats the workload on one thread until --seconds have
 * passed, interleaving a fixed host-speed probe with the simulation,
 * and reports the median over passes of each end-to-end metric scaled
 * to the probe's reference speed. --trace 1 runs the workload once
 * untraced (ttcp through core::Campaign) and once traced, on one
 * thread, and reports the per-layer metrics. Either way every point's
 * JSONL record is written, re-read through core::readResultsJsonlFile,
 * and checked: it must round-trip and, at the default seed, match the
 * committed reference digest. The last line of stdout is one JSON
 * object with the verdict and the metrics.
 */

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "perfbench/host_sampler.hh"
#include "src/core/campaign.hh"
#include "src/core/experiment.hh"
#include "src/core/results_jsonl.hh"
#include "src/core/sweep.hh"
#include "src/core/system.hh"
#include "src/sim/logging.hh"

namespace na::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Optimised, unsanitised builds only: numbers from a debug or
// sanitizer build must never reach the ledger.
#if !defined(__OPTIMIZE__)
constexpr const char *buildProblem = "compiled without optimisation";
#elif defined(__SANITIZE_ADDRESS__)
constexpr const char *buildProblem = "compiled with AddressSanitizer";
#elif defined(__SANITIZE_THREAD__)
constexpr const char *buildProblem = "compiled with ThreadSanitizer";
#else
constexpr const char *buildProblem = nullptr;
#endif

#ifndef NA_PERFBENCH_BUILD_TYPE
#define NA_PERFBENCH_BUILD_TYPE "unknown"
#endif

/** The seed the committed reference digests were recorded at. */
constexpr std::uint64_t defaultSeed = 42;

/** Transaction sizes of the paper's Figure 3. */
constexpr std::array<std::uint32_t, 7> paperSizes = {
    128, 256, 1024, 4096, 8192, 16384, 65536};

/** flow-churn: points per pass and flows per point. */
constexpr int churnPoints = 4;
constexpr std::uint64_t churnFlowsPerPoint = 8192;

/** Simulated slice lengths of the manually stepped runs. */
constexpr sim::Tick ttcpSlice = 2'000'000;   // 1 ms at 2 GHz
constexpr sim::Tick churnSlice = 20'000'000; // 10 ms
/** A churn point that has not drained by then has failed. */
constexpr sim::Tick churnSimLimit = 40'000'000'000; // 20 s

/** Set-up samples per timed pass: each builds every point's System. */
constexpr int setupRepeats = 3;

/** SIGPROF period of the traced run (CPU time); the kernel rounds it
 *  up to its tick. */
constexpr long sampleIntervalUs = 1000;
/** Samples kept: over 15 minutes of CPU time at 1 kHz. */
constexpr std::size_t sampleCapacity = 1u << 20;

struct Workload
{
    std::string name;
    bool churn = false; ///< flow-churn (else a ttcp sweep)
    std::vector<core::CampaignPoint> points; ///< seeds applied
    std::vector<std::uint64_t> keys;         ///< canonical point keys
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @return user + system CPU seconds of the whole process so far. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** @return the @p q quantile of @p v, interpolating between samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

/** 64-bit FNV-1a: a stable digest of one result record line. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
u64(const stats::Scalar &s)
{
    return static_cast<std::uint64_t>(s.value());
}

// ---------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------

/** Probe iterations per chunk: about a millisecond at reference speed. */
constexpr int probeChunkIterations = 8192;
/** Host seconds one probe chunk takes at the reference speed. */
constexpr double probeReferenceS = 1.0e-3;
/** Host time between probe chunks during a simulation. */
constexpr double probeIntervalS = 0.010;
/**
 * How much more the simulator slows down than the probe when the host
 * does: pass time goes as probe speed to this power. Fitted on the
 * shared 4-vCPU host (log-log slope 1.25 between passes of one run;
 * 1.3-1.6 between runs).
 */
constexpr double simulatorSensitivity = 1.3;

/**
 * A fixed kernel shaped like the simulator's hottest code (a
 * set-associative tag lookup with age-based replacement over a 1 MiB
 * table, and a binary heap), run in short chunks on the simulating
 * thread between simulated slices. The host this runs on is shared:
 * its speed drifts by tens of percent within seconds, and the probe
 * samples that drift at the moments the simulation runs. Nothing in
 * it depends on the simulator or on the seed, so a change to the
 * simulator cannot move it.
 */
class SpeedProbe
{
  public:
    /** Probe wall and CPU time accumulated so far. */
    struct Totals
    {
        double wallS = 0;
        double cpuS = 0;
        std::size_t chunks = 0;
    };

    SpeedProbe() : tags_(sets * ways, 0), age_(sets * ways, 0)
    {
        heap_.reserve(heapSize + 1);
        for (int i = 0; i < 64; ++i) // reach the steady-state hit rate
            chunk();
        last_ = Clock::now();
    }

    /** Run and time one chunk. */
    void
    sample()
    {
        const auto t0 = Clock::now();
        const double cpu0 = processCpuSeconds();
        chunk();
        totals_.cpuS += processCpuSeconds() - cpu0;
        last_ = Clock::now();
        totals_.wallS += std::chrono::duration<double>(last_ - t0).count();
        ++totals_.chunks;
    }

    /** Sample if probeIntervalS has passed since the last chunk. */
    void
    maybeSample()
    {
        if (secondsSince(last_) >= probeIntervalS)
            sample();
    }

    const Totals &totals() const { return totals_; }

  private:
    static constexpr std::size_t sets = 16384;
    static constexpr std::size_t ways = 8;
    static constexpr std::size_t heapSize = 256;

    void
    chunk()
    {
        std::uint64_t hits = 0;
        for (int i = 0; i < probeChunkIterations; ++i) {
            x_ ^= x_ << 13; // xorshift64
            x_ ^= x_ >> 7;
            x_ ^= x_ << 17;
            const std::uint64_t line = (x_ & 0x1ffffff) >> 6;
            std::uint64_t *tag = &tags_[(line % sets) * ways];
            std::uint8_t *age = &age_[(line % sets) * ways];
            const std::uint64_t want = line / sets;
            std::size_t way = ways;
            for (std::size_t k = 0; k < ways; ++k) {
                if (tag[k] == want) {
                    way = k;
                    break;
                }
            }
            if (way == ways) {
                way = 0;
                for (std::size_t k = 1; k < ways; ++k)
                    way = age[k] > age[way] ? k : way;
                tag[way] = want;
            } else {
                ++hits;
            }
            for (std::size_t k = 0; k < ways; ++k)
                age[k] = static_cast<std::uint8_t>(age[k] + (age[k] < 255));
            age[way] = 0;
            heap_.push_back(x_ >> 20);
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
            if (heap_.size() > heapSize) {
                std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
                heap_.pop_back();
            }
        }
        sink_ = sink_ + hits + heap_.front();
    }

    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> age_;
    std::vector<std::uint64_t> heap_;
    std::uint64_t x_ = 0x9e3779b97f4a7c15ULL;
    volatile std::uint64_t sink_ = 0;
    Clock::time_point last_;
    Totals totals_;
};

/**
 * @return the host's speed relative to the reference while the probe
 * went from @p before to @p after (below 1 when the host ran slow),
 * in wall (@p cpu false) or CPU time.
 */
double
probeSpeed(const SpeedProbe::Totals &before,
           const SpeedProbe::Totals &after, bool cpu)
{
    const std::size_t chunks = after.chunks - before.chunks;
    const double spent = cpu ? after.cpuS - before.cpuS
                             : after.wallS - before.wallS;
    if (chunks == 0 || !(spent > 0))
        return 1.0;
    return probeReferenceS * static_cast<double>(chunks) / spent;
}

/** @return @p host_s host seconds, measured at probe speed @p speed,
 *  as seconds at the reference speed. */
double
atReferenceSpeed(double host_s, double speed)
{
    return host_s * std::pow(speed, simulatorSensitivity);
}

// ---------------------------------------------------------------------
// Workload construction
// ---------------------------------------------------------------------

core::SystemConfig
churnConfig(std::uint64_t seed)
{
    core::SystemConfig cfg;
    cfg.platform.numCpus = 4;
    cfg.platform.seed = seed;
    cfg.numConnections = 1;
    workload::FlowMixConfig mix;
    mix.maxConcurrentFlows = 1024;
    mix.totalFlows = churnFlowsPerPoint;
    mix.flowSizeMin = 512;
    mix.flowSizeMax = 32 * 1024;
    mix.flowSizeShape = 1.2;
    // 47.5 us: just below the arrival rate at which the concurrency cap
    // binds. ext_flows' 15 us overloads the server, so the socket pool
    // refuses SYNs, and the retransmission backoff of the refused flows
    // makes each point's simulated length vary by up to 70 % with the
    // seed. Here no SYN is refused and that length is seed-independent.
    mix.meanInterarrivalTicks = 95'000;
    mix.listenBacklog = 256;
    cfg.workload = mix;
    return cfg;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "ttcp-tx" || name == "ttcp-rx") {
        w.points = core::SweepBuilder()
                       .mode(name == "ttcp-tx"
                                 ? workload::TtcpMode::Transmit
                                 : workload::TtcpMode::Receive)
                       .sizes(paperSizes)
                       .affinities(core::allAffinityModes)
                       .build();
        core::Campaign::Options opts;
        opts.seed = seed;
        core::Campaign::applyPointSeeds(w.points, opts);
    } else if (name == "flow-churn") {
        w.churn = true;
        for (int i = 0; i < churnPoints; ++i) {
            core::CampaignPoint p;
            p.config = churnConfig(core::Campaign::pointSeed(
                seed, static_cast<std::size_t>(i)));
            p.label = sim::format(
                "CHURN %llu flows #%d",
                static_cast<unsigned long long>(churnFlowsPerPoint), i);
            w.points.push_back(std::move(p));
        }
    } else {
        return std::nullopt;
    }
    w.keys = core::Campaign::pointKeys(w.points);
    return w;
}

// ---------------------------------------------------------------------
// Exact simulated counts and the traced-run probe
// ---------------------------------------------------------------------

/** Simulated statistics that a simulator-only change must not move. */
constexpr std::array<const char *, 8> modelCountNames = {
    "mem.accesses",         "mem.lines_stolen",   "mem.llc_misses",
    "cpu.sim_instructions", "cpu.machine_clears", "os.irqs",
    "os.context_switches",  "net.rx_frames"};
using ModelCounts = std::array<std::uint64_t, modelCountNames.size()>;

ModelCounts
readModelCounts(core::System &sys)
{
    ModelCounts c{};
    os::Kernel &kern = sys.kernel();
    for (int cpu = 0; cpu < kern.numCpus(); ++cpu) {
        cpu::Core &core = kern.core(cpu);
        const cpu::PerfCounters &pc = core.counters;
        c[0] += u64(core.dataCaches().accesses);
        c[1] += u64(core.dataCaches().linesStolenByRemote);
        c[2] += u64(pc.llcMisses);
        c[3] += u64(pc.instructions);
        c[4] += u64(pc.machineClears);
        c[5] += u64(pc.irqsReceived);
        c[6] += u64(pc.contextSwitches);
    }
    for (int i = 0; i < sys.numConnections(); ++i)
        c[7] += u64(sys.nic(i).rxFrames);
    return c;
}

void
addCounts(ModelCounts &into, const ModelCounts &c)
{
    for (std::size_t i = 0; i < into.size(); ++i)
        into[i] += c[i];
}

/**
 * What a traced pass records: host-time spans around the public calls
 * the benchmark makes, and counters read at every slice boundary.
 */
struct Trace
{
    std::vector<double> setupMs; ///< System construction, per point
    double simS = 0;             ///< establish + runFor slices
    double extractMs = 0;
    double writeMs = 0;
    double readMs = 0;
    std::uint64_t events = 0;
    std::uint64_t heapPeak = 0;
    std::uint64_t connTablePeak = 0;
    std::uint64_t socketPoolPeak = 0;
    std::uint64_t skbInUsePeak = 0;
    ModelCounts counts{};

    void
    probe(core::System &sys)
    {
        heapPeak = std::max<std::uint64_t>(heapPeak,
                                           sys.eventQueue().heapEntries());
        connTablePeak = std::max<std::uint64_t>(
            connTablePeak, sys.driver().connectionTable().size());
        if (sys.config().workloadKind() == workload::Kind::FlowMix) {
            socketPoolPeak = std::max<std::uint64_t>(
                socketPoolPeak, sys.socketPool().inUse());
        }
        net::SkbPool &pool = sys.skbPool();
        skbInUsePeak = std::max<std::uint64_t>(
            skbInUsePeak,
            static_cast<std::uint64_t>(pool.capacity() - pool.freeCount()));
    }
};

// ---------------------------------------------------------------------
// Running points
// ---------------------------------------------------------------------

/** One point's result plus what the pass statistics need. */
struct Outcome
{
    core::RunResult result;
    sim::Tick simTicks = 0; ///< simulated time advanced
    std::string violation;  ///< broken invariant, empty when none
};

/** What runPoint() does at every slice boundary. */
struct SliceHooks
{
    Trace *trace = nullptr;
    SpeedProbe *probe = nullptr;

    void
    operator()(core::System &sys) const
    {
        if (trace)
            trace->probe(sys);
        if (probe)
            probe->maybeSample();
    }
};

/** Advance @p sys by @p duration in @p slice steps. */
void
runSliced(core::System &sys, sim::Tick duration, sim::Tick slice,
          const SliceHooks &hooks)
{
    const sim::Tick end = sys.eventQueue().now() + duration;
    while (sys.eventQueue().now() < end) {
        sys.runFor(std::min(slice, end - sys.eventQueue().now()));
        hooks(sys);
    }
}

std::string
ttcpViolation(const core::RunResult &r)
{
    if (r.failed)
        return "point failed: " + r.failure.reason;
    if (r.payloadBytes == 0 || !(r.throughputMbps > 0))
        return "no payload reached the sink";
    if (!(r.cpuUtil >= 0.0 && r.cpuUtil <= 1.0 + 1e-9))
        return "cpu utilisation outside [0, 1]";
    return {};
}

/** The ext_flows conservation laws after a drained churn run. */
std::string
churnViolation(core::System &sys, std::uint64_t total)
{
    std::uint64_t completed = 0;
    for (int i = 0; i < sys.numConnections(); ++i) {
        net::FlowClientPeer &client = sys.flowPeer(i);
        completed += client.flowsCompletedCount();
        if (client.liveFlows() != 0)
            return "client population did not drain";
        std::uint64_t bucket_flows = 0;
        std::uint64_t bucket_bytes = 0;
        for (const net::FlowSizeBucket &b : client.sizeBuckets()) {
            bucket_flows += b.flows;
            bucket_bytes += b.bytes;
        }
        if (bucket_flows != client.flowsCompletedCount())
            return "size buckets do not telescope to the completions";
        if (bucket_bytes != client.completedBytesSent())
            return "size buckets do not telescope to the client bytes";
        if (sys.mixApp(i).bytesReceived() != client.completedBytesSent())
            return "server reads differ from client completed bytes";
    }
    if (completed != total)
        return sim::format("completed %llu of %llu launched flows",
                           static_cast<unsigned long long>(completed),
                           static_cast<unsigned long long>(total));
    if (sys.driver().connectionTable().size() != 0)
        return "connection table not empty after drain";
    if (sys.socketPool().inUse() != 0)
        return "socket pool not empty after drain";
    return {};
}

/**
 * Drive one point through the public System API, step by step: build,
 * establish, run in fixed simulated slices, measure, extract. For ttcp
 * this is Experiment::measure's protocol, so the record must equal
 * the campaign's; for churn it runs until every flow has drained.
 */
Outcome
runPoint(const core::CampaignPoint &p, const SliceHooks &hooks)
{
    Trace *const trace = hooks.trace;
    Outcome o;
    try {
        auto t = Clock::now();
        core::System sys(p.config);
        if (trace)
            trace->setupMs.push_back(1e3 * secondsSince(t));

        t = Clock::now();
        const bool churn =
            p.config.workloadKind() == workload::Kind::FlowMix;
        if (!sys.establishAll(p.schedule.establishDeadline))
            throw std::runtime_error("connections failed to establish");
        if (!churn) {
            if (p.schedule.maxWindows > 1)
                throw std::logic_error("convergence mode not supported");
            runSliced(sys, p.schedule.warmup, ttcpSlice, hooks);
        }
        const ModelCounts warm = readModelCounts(sys);
        sys.beginMeasurement();
        const std::uint64_t sink0 = sys.sinkBytes();
        const sim::Tick t0 = sys.eventQueue().now();
        std::uint64_t total = 0;
        if (churn) {
            total = p.config.mix().totalFlows;
            auto drained = [&] {
                const net::FlowClientPeer &c = sys.flowPeer(0);
                return c.flowsCompletedCount() >= total &&
                       c.liveFlows() == 0 &&
                       sys.driver().connectionTable().size() == 0 &&
                       sys.socketPool().inUse() == 0;
            };
            while (!drained() && sys.eventQueue().now() < churnSimLimit) {
                sys.runFor(churnSlice);
                hooks(sys);
            }
        } else {
            runSliced(sys, p.schedule.measure, ttcpSlice, hooks);
        }
        sys.endMeasurement();
        const sim::Tick t1 = sys.eventQueue().now();
        if (trace)
            trace->simS += secondsSince(t);

        t = Clock::now();
        o.result = core::Experiment::extract(
            sys, sim::ticksToSeconds(t1 - t0, p.config.platform.freqHz),
            sys.sinkBytes() - sink0);
        if (trace) {
            trace->extractMs += 1e3 * secondsSince(t);
            trace->events += sys.eventQueue().processedCount();
            addCounts(trace->counts, warm);
            addCounts(trace->counts, readModelCounts(sys));
        }
        o.simTicks = t1;
        if (churn) {
            o.violation = churnViolation(sys, total);
        } else {
            o.violation = ttcpViolation(o.result);
        }
    } catch (const std::exception &e) {
        o.result = core::RunResult{};
        o.result.failed = true;
        o.result.failure.reason = e.what();
        o.violation = std::string("point threw: ") + e.what();
    }
    return o;
}

// ---------------------------------------------------------------------
// Reference digests and record checks
// ---------------------------------------------------------------------

/** Committed expectations for one workload at the default seed. */
struct Reference
{
    /** Per point, in order: canonical key and record digest. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
    std::optional<ModelCounts> counts;
};

std::optional<Reference>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    Reference ref;
    ModelCounts counts{};
    std::size_t counts_seen = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "point") {
            std::string key, digest;
            ls >> key >> digest;
            ref.points.emplace_back(std::stoull(key, nullptr, 16),
                                    std::stoull(digest, nullptr, 16));
        } else if (tag == "count") {
            std::string name;
            std::uint64_t value = 0;
            ls >> name >> value;
            for (std::size_t i = 0; i < modelCountNames.size(); ++i) {
                if (name == modelCountNames[i]) {
                    counts[i] = value;
                    ++counts_seen;
                }
            }
        }
    }
    if (counts_seen == modelCountNames.size())
        ref.counts = counts;
    return ref;
}

void
writeReference(const std::string &path, const Workload &w,
               std::uint64_t seed,
               const std::vector<std::uint64_t> &digests,
               const ModelCounts &counts)
{
    std::ofstream out(path, std::ios::trunc);
    out << "# perfbench reference: workload " << w.name << ", seed "
        << seed << "\n"
        << "# point <point key> <FNV-1a 64 of the JSONL record> <label>\n";
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        out << "point " << hex64(w.keys[i]) << ' ' << hex64(digests[i])
            << ' ' << w.points[i].label << "\n";
    }
    for (std::size_t i = 0; i < counts.size(); ++i)
        out << "count " << modelCountNames[i] << ' ' << counts[i] << "\n";
    if (!out.flush())
        throw std::runtime_error("cannot write reference " + path);
}

/** Non-blank lines of a file, in order. */
std::vector<std::string>
fileLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") != std::string::npos)
            lines.push_back(line);
    }
    return lines;
}

std::string
recordLine(const core::CampaignPoint &p, const core::RunResult &r,
           std::uint64_t key)
{
    std::ostringstream os;
    writeJsonlRecord(os, p, r, key);
    std::string s = os.str();
    if (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

/** Verdict of one pass: which points count as failed, and why. */
struct PassCheck
{
    std::vector<std::uint64_t> digests; ///< per point, of its record
    std::vector<std::string> problems;  ///< per point, empty when fine

    std::size_t
    failures() const
    {
        return static_cast<std::size_t>(
            std::count_if(problems.begin(), problems.end(),
                          [](const std::string &s) { return !s.empty(); }));
    }
};

/**
 * Check a pass's records: each point's record in the JSONL file must
 * equal the in-memory record, re-serialise identically after a trip
 * through the reader, satisfy the workload invariants, and, when a
 * reference is given, match its digest.
 */
PassCheck
checkPass(const Workload &w, const std::vector<Outcome> &outcomes,
          const std::string &jsonl_path, const core::JsonlFile &parsed,
          const Reference *ref)
{
    const std::size_t n = w.points.size();
    PassCheck pc;
    pc.digests.assign(n, 0);
    pc.problems.assign(n, "");

    const std::vector<std::string> raw = fileLines(jsonl_path);
    std::map<std::uint64_t, std::pair<const core::JsonlRecord *,
                                      const std::string *>>
        by_key;
    if (raw.size() == parsed.records.size()) {
        for (std::size_t i = 0; i < raw.size(); ++i) {
            by_key[parsed.records[i].key] = {&parsed.records[i], &raw[i]};
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        std::string &problem = pc.problems[i];
        const std::string expect =
            recordLine(w.points[i], outcomes[i].result, w.keys[i]);
        pc.digests[i] = fnv1a(expect);
        const auto it = by_key.find(w.keys[i]);
        if (!outcomes[i].violation.empty()) {
            problem = outcomes[i].violation;
        } else if (it == by_key.end()) {
            problem = "record missing from the JSONL stream";
        } else if (*it->second.second != expect) {
            problem = "JSONL record differs from the in-memory result";
        } else if (recordLine(w.points[i], it->second.first->rec.result,
                              w.keys[i]) != expect) {
            problem = "record does not round-trip through the reader";
        } else if (ref) {
            if (ref->points.size() != n || ref->points[i].first != w.keys[i])
                problem = "reference lists a different point";
            else if (ref->points[i].second != pc.digests[i])
                problem = "record differs from the reference digest";
        }
    }
    return pc;
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/** Host cost of one pass over a workload's points. */
struct Pass
{
    double wallS = 0;
    double cpuS = 0;
    double simMs = 0; ///< simulated ms advanced, all points, all phases
    std::uint64_t flows = 0;
    std::vector<Outcome> outcomes;
    core::JsonlFile parsed;
};

/**
 * One pass over every point of @p w through the public API, on this
 * thread, re-reading the JSONL stream at the end. With @p campaign
 * (ttcp only) the points run as the paper benches run them, through
 * core::Campaign streaming to @p jsonl; otherwise each point is
 * stepped with runPoint() and the stream is written afterwards.
 */
Pass
runPass(const Workload &w, const std::string &jsonl, bool campaign,
        const SliceHooks &hooks = {})
{
    std::filesystem::remove(jsonl);
    Pass pass;
    const std::size_t n = w.points.size();
    pass.outcomes.resize(n);
    Trace *const trace = hooks.trace;
    const auto t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    if (!campaign || w.churn) {
        for (std::size_t i = 0; i < n; ++i)
            pass.outcomes[i] = runPoint(w.points[i], hooks);
        const auto t = Clock::now();
        core::JsonlAppender out(jsonl);
        for (std::size_t i = 0; i < n; ++i)
            out.append(w.points[i], pass.outcomes[i].result, w.keys[i]);
        if (trace)
            trace->writeMs = 1e3 * secondsSince(t);
    } else {
        std::vector<sim::Tick> ticks(n, 0);
        core::Campaign::Options opts;
        opts.numThreads = 1;
        opts.derivePointSeeds = false; // makeWorkload applied them
        opts.jsonlPath = jsonl;
        opts.resultHook = [&ticks](core::System &sys,
                                   const core::CampaignPoint &,
                                   std::size_t i, core::RunResult &) {
            ticks[i] = sys.eventQueue().now();
        };
        const core::ResultSet rs = core::Campaign::run(w.points, opts);
        for (std::size_t i = 0; i < n; ++i) {
            pass.outcomes[i].result = rs.result(i);
            pass.outcomes[i].simTicks = ticks[i];
            pass.outcomes[i].violation = ttcpViolation(rs.result(i));
        }
    }
    const auto t = Clock::now();
    pass.parsed = core::readResultsJsonlFile(jsonl);
    if (trace)
        trace->readMs = 1e3 * secondsSince(t);
    pass.wallS = secondsSince(t0);
    pass.cpuS = processCpuSeconds() - cpu0;
    for (std::size_t i = 0; i < n; ++i) {
        pass.simMs += 1e3 * sim::ticksToSeconds(
                                pass.outcomes[i].simTicks,
                                w.points[i].config.platform.freqHz);
        pass.flows += w.churn ? pass.outcomes[i].result.flows.completed
                              : static_cast<std::uint64_t>(
                                    w.points[i].config.numConnections);
    }
    return pass;
}

/**
 * Host seconds to build every point's System, before any event, at
 * the reference speed: one probe chunk follows each construction.
 */
double
setupSeconds(const Workload &w, SpeedProbe &probe)
{
    const SpeedProbe::Totals before = probe.totals();
    double total = 0;
    for (const core::CampaignPoint &p : w.points) {
        const auto t0 = Clock::now();
        auto sys = std::make_unique<core::System>(p.config);
        total += secondsSince(t0);
        sys.reset();
        probe.sample();
    }
    return atReferenceSpeed(total,
                            probeSpeed(before, probe.totals(), false));
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-26s %16.6f %s   (%zu of %zu points failed)\n",
                "fail_ratio",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 1.0,
                "ratio", failed, attempted);
    std::string json = sim::format(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += sim::format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                            i ? ", " : "", metrics[i].name.c_str(),
                            jsonNumber(metrics[i].value).c_str(),
                            metrics[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
reportProblems(const Workload &w, const PassCheck &pc)
{
    for (std::size_t i = 0; i < pc.problems.size(); ++i) {
        if (!pc.problems[i].empty()) {
            std::printf("  FAIL %s: %s\n", w.points[i].label.c_str(),
                        pc.problems[i].c_str());
        }
    }
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    int trace = 0;
    bool selfTest = false;
    std::string writeReferencePath;
    std::string outDir = ".bench_build/out";
};

/**
 * Timed run: repeat passes for opt.seconds on this thread, with the
 * speed probe sampled between simulated slices, and report per metric
 * the median over passes. Every host time is the pass's time without
 * the probe chunks, scaled to the reference speed by atReferenceSpeed().
 */
int
runTimed(const Workload &w, const Options &opt, const Reference *ref)
{
    const std::string jsonl = opt.outDir + "/" + w.name + ".jsonl";
    SpeedProbe probe;
    std::vector<double> wall, cpu, setup, sim_rate, flow_rate, raw_wall;
    std::size_t attempted = 0, failed = 0;
    const auto start = Clock::now();
    double last_pass_s = 0;
    // Start another pass only if it should end within opt.seconds.
    while (wall.empty() ||
           secondsSince(start) + last_pass_s <= opt.seconds) {
        const auto pass_start = Clock::now();
        for (int r = 0; r < setupRepeats; ++r)
            setup.push_back(setupSeconds(w, probe));
        const SpeedProbe::Totals before = probe.totals();
        Pass pass = runPass(w, jsonl, false, SliceHooks{nullptr, &probe});
        const SpeedProbe::Totals &after = probe.totals();
        const PassCheck pc = checkPass(w, pass.outcomes, jsonl,
                                       pass.parsed, ref);
        reportProblems(w, pc);
        attempted += w.points.size();
        failed += pc.failures();
        const double host_wall = pass.wallS - (after.wallS - before.wallS);
        const double host_cpu = pass.cpuS - (after.cpuS - before.cpuS);
        const double speed = probeSpeed(before, after, false);
        raw_wall.push_back(host_wall);
        wall.push_back(atReferenceSpeed(host_wall, speed));
        cpu.push_back(atReferenceSpeed(host_cpu,
                                       probeSpeed(before, after, true)));
        sim_rate.push_back(pass.simMs / wall.back());
        flow_rate.push_back(static_cast<double>(pass.flows) / wall.back());
        std::printf("  pass %zu: %.3f s wall at host speed %.3f = %.3f s "
                    "at reference speed (%zu probe chunks), %zu failed\n",
                    wall.size(), host_wall, speed, wall.back(),
                    after.chunks - before.chunks, pc.failures());
        last_pass_s = secondsSince(pass_start);
    }

    std::printf("  %zu passes of %zu points, medians below; unscaled "
                "median wall %.3f s\n",
                wall.size(), w.points.size(), quantile(raw_wall, 0.5));
    printResult(failed == 0, attempted, failed,
                {{"wall_s", quantile(wall, 0.5), "s"},
                 {"cpu_s", quantile(cpu, 0.5), "s"},
                 {"setup_s", quantile(setup, 0.5), "s"},
                 {"sim_ms_per_host_s", quantile(sim_rate, 0.5), "ms/s"},
                 {"peak_rss_mb", peakRssMb(), "MB"},
                 {"flows_per_host_s", quantile(flow_rate, 0.5), "1/s"}});
    return 0;
}

/** Traced run: untraced pass, then the traced one; per-layer metrics. */
int
runTraced(const Workload &w, const Options &opt, const Reference *ref)
{
    const std::string plain_jsonl = opt.outDir + "/" + w.name + ".jsonl";
    const std::string jsonl = opt.outDir + "/" + w.name + ".traced.jsonl";
    const SymbolMap symbols;

    const Pass plain = runPass(w, plain_jsonl, true);
    const PassCheck plain_check =
        checkPass(w, plain.outcomes, plain_jsonl, plain.parsed, ref);
    reportProblems(w, plain_check);

    Trace trace;
    ProfSampler sampler(sampleCapacity);
    sampler.start(sampleIntervalUs);
    const Pass traced = runPass(w, jsonl, false, SliceHooks{&trace});
    sampler.stop();
    const PassCheck traced_check =
        checkPass(w, traced.outcomes, jsonl, traced.parsed, ref);
    reportProblems(w, traced_check);

    bool correct = plain_check.failures() == 0 &&
                   traced_check.failures() == 0;
    if (ref && ref->counts) {
        for (std::size_t i = 0; i < trace.counts.size(); ++i) {
            if (trace.counts[i] != (*ref->counts)[i]) {
                std::printf("  FAIL %s: %llu, reference %llu\n",
                            modelCountNames[i],
                            static_cast<unsigned long long>(trace.counts[i]),
                            static_cast<unsigned long long>(
                                (*ref->counts)[i]));
                correct = false;
            }
        }
    } else if (ref) {
        std::printf("  FAIL reference has no exact counts\n");
        correct = false;
    }

    const std::vector<std::uintptr_t> pcs = sampler.samples();
    LayerCounts layers = attribute(symbols, pcs);
    // The benchmark's own code is not a simulator layer.
    layers[static_cast<std::size_t>(Layer::Other)] +=
        layers[static_cast<std::size_t>(Layer::Bench)];
    layers[static_cast<std::size_t>(Layer::Bench)] = 0;
    const double nsamples = static_cast<double>(std::max<std::size_t>(
        pcs.size(), 1));
    auto pct = [&](Layer l) {
        return 100.0 * static_cast<double>(
                           layers[static_cast<std::size_t>(l)]) /
               nsamples;
    };
    auto dbl = [](std::uint64_t v) { return static_cast<double>(v); };
    const double mem_accesses = dbl(trace.counts[0]); // "mem.accesses"

    std::vector<Metric> m = {
        {"core.setup_ms_p50", quantile(trace.setupMs, 0.5), "ms"},
        {"core.sim_s", trace.simS, "s"},
        {"core.extract_ms", trace.extractMs, "ms"},
        {"core.results_write_ms", trace.writeMs, "ms"},
        {"core.results_read_ms", trace.readMs, "ms"},
        {"sim.events", dbl(trace.events), "count"},
        {"sim.host_ns_per_event",
         trace.events ? 1e9 * trace.simS / dbl(trace.events) : 0.0, "ns"},
        {"sim.heap_peak", dbl(trace.heapPeak), "count"},
        {"net.conn_table_peak", dbl(trace.connTablePeak), "count"},
        {"net.socket_pool_peak", dbl(trace.socketPoolPeak), "count"},
        {"net.skb_in_use_peak", dbl(trace.skbInUsePeak), "count"},
    };
    for (std::size_t i = 0; i < modelCountNames.size(); ++i)
        m.push_back({modelCountNames[i], dbl(trace.counts[i]), "count"});
    for (Layer l : {Layer::Mem, Layer::Cpu, Layer::Os, Layer::NetStack,
                    Layer::NetPeerWire, Layer::Sim, Layer::Prof,
                    Layer::Core, Layer::Workload, Layer::Other}) {
        m.push_back({std::string(layerName(l)) + ".self_pct", pct(l), "%"});
    }
    m.push_back({"mem.host_ns_per_access",
                 mem_accesses > 0 ? pct(Layer::Mem) / 100.0 * traced.cpuS *
                                        1e9 / mem_accesses
                                  : 0.0,
                 "ns"});
    m.push_back({"trace.samples", dbl(pcs.size()), "count"});
    m.push_back({"trace.overhead_pct",
                 100.0 * (traced.wallS - plain.wallS) / plain.wallS, "%"});

    std::printf("  untraced pass %.3f s, traced pass %.3f s (%.3f s cpu), "
                "%zu samples\n",
                plain.wallS, traced.wallS, traced.cpuS, pcs.size());
    const std::size_t attempted = 2 * w.points.size();
    const std::size_t failed =
        plain_check.failures() + traced_check.failures();
    printResult(correct, attempted, failed, m);
    return 0;
}

/** Record the reference for @p w at opt.seed from a stepped pass. */
int
runWriteReference(const Workload &w, const Options &opt)
{
    const std::string jsonl = opt.outDir + "/" + w.name + ".ref.jsonl";
    Trace trace;
    const Pass pass = runPass(w, jsonl, false, SliceHooks{&trace});
    const PassCheck pc =
        checkPass(w, pass.outcomes, jsonl, pass.parsed, nullptr);
    reportProblems(w, pc);
    if (pc.failures() != 0) {
        std::fprintf(stderr, "error: points failed; reference not written\n");
        return 1;
    }
    writeReference(opt.writeReferencePath, w, opt.seed, pc.digests,
                   trace.counts);
    std::printf("reference for %s (seed %llu, %zu points) written to %s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                w.points.size(), opt.writeReferencePath.c_str());
    return 0;
}

} // namespace

/**
 * Synthetic busy function for the self-test: the sampler must
 * attribute its samples to this namespace.
 */
[[gnu::noinline]] double
selfTestBusy(double seconds)
{
    volatile double acc = 1.0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        for (int i = 0; i < 2'000'000; ++i)
            acc = acc * 1.0000001 + 1e-9;
    }
    return acc;
}

namespace {

int
runSelfTest(const Options &opt)
{
    int failures = 0;
    auto check = [&failures](bool ok, const char *what) {
        std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    // 1. Namespace attribution of symbol names.
    check(layerOfSymbol("na::mem::SnoopDomain::dmaRead(unsigned long, "
                        "unsigned int)") == Layer::Mem,
          "na::mem symbol -> mem");
    check(layerOfSymbol("std::vector<na::net::SkBuff, "
                        "std::allocator<na::net::SkBuff> >::reserve("
                        "unsigned long)") == Layer::NetStack,
          "std:: instantiation over na::net -> net.stack");
    check(layerOfSymbol("na::net::Wire::DeliverEvent::process()") ==
              Layer::NetPeerWire,
          "na::net::Wire -> net.peer_wire");
    check(layerOfSymbol("na::net::WireFormat::x()") == Layer::NetStack,
          "class-name prefix is not a match");
    check(layerOfSymbol("banana::mem::f()") == Layer::Other,
          "namespace must start a qualified name");
    check(layerOfSymbol("malloc") == Layer::Other, "libc -> other");

    // 2. The sampler attributes a busy function to its namespace.
    const SymbolMap symbols;
    ProfSampler sampler(1u << 16);
    sampler.start(sampleIntervalUs);
    selfTestBusy(0.4);
    sampler.stop();
    const std::vector<std::uintptr_t> pcs = sampler.samples();
    const LayerCounts counts = attribute(symbols, pcs);
    const double share =
        pcs.empty() ? 0.0
                    : static_cast<double>(
                          counts[static_cast<std::size_t>(Layer::Bench)]) /
                          static_cast<double>(pcs.size());
    std::printf("  sampler: %zu samples, %.1f%% in na::perfbench\n",
                pcs.size(), 100.0 * share);
    check(pcs.size() >= 20 && share >= 0.8,
          "busy function sampled in its namespace");

    // 3. Records round-trip through the reader; a corrupted reference
    //    fails every point.
    Workload w;
    w.name = "self-test";
    core::RunSchedule quick;
    quick.warmup = 2'000'000;
    quick.measure = 4'000'000;
    w.points = core::SweepBuilder()
                   .mode(workload::TtcpMode::Transmit)
                   .sizes({4096, 65536})
                   .affinity(core::AffinityMode::Full)
                   .schedule(quick)
                   .build();
    core::Campaign::applyPointSeeds(w.points, {});
    w.keys = core::Campaign::pointKeys(w.points);
    const std::string jsonl = opt.outDir + "/self-test.jsonl";
    const Pass pass = runPass(w, jsonl, true);
    const PassCheck clean =
        checkPass(w, pass.outcomes, jsonl, pass.parsed, nullptr);
    reportProblems(w, clean);
    check(clean.failures() == 0, "records round-trip through the reader");
    const std::string ref_path = opt.outDir + "/self-test.ref";
    writeReference(ref_path, w, defaultSeed, clean.digests, ModelCounts{});
    const std::optional<Reference> good = loadReference(ref_path);
    check(good && good->counts && good->points.size() == w.points.size(),
          "reference file round-trips");
    check(good && checkPass(w, pass.outcomes, jsonl, pass.parsed, &*good)
                          .failures() == 0,
          "matching reference passes");
    Reference corrupt = good.value_or(Reference{});
    for (auto &pt : corrupt.points)
        pt.second ^= 1;
    const PassCheck bad =
        checkPass(w, pass.outcomes, jsonl, pass.parsed, &corrupt);
    check(bad.failures() == w.points.size(),
          "corrupted reference gives fail_ratio 1.0");

    std::printf("self-test %s\n", failures ? "FAILED" : "OK");
    return failures ? 1 : 0;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        auto number = [&](auto &out) {
            const std::string v = value();
            const auto [p, ec] =
                std::from_chars(v.data(), v.data() + v.size(), out);
            if (ec != std::errc{} || p != v.data() + v.size())
                throw std::runtime_error(a + ": bad number '" + v + "'");
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            number(opt.seed);
        else if (a == "--seconds")
            number(opt.seconds);
        else if (a == "--trace")
            number(opt.trace);
        else if (a == "--self-test")
            opt.selfTest = true;
        else if (a == "--write-reference")
            opt.writeReferencePath = value();
        else
            throw std::runtime_error("unknown argument " + a);
    }
    return opt.selfTest || !opt.workload.empty();
}

/** Directory for the run's JSONL streams, removed with its contents. */
struct RunDir
{
    explicit RunDir(std::filesystem::path p) : path(std::move(p))
    {
        std::filesystem::create_directories(path);
    }
    ~RunDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    const std::filesystem::path path;
};

int
run(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload ttcp-tx|ttcp-rx|"
                     "flow-churn --seed N --seconds S --trace 0|1\n"
                     "       perfbench --self-test\n");
        return 2;
    }
    if (buildProblem) {
        std::fprintf(stderr,
                     "error: perfbench was %s (build type %s); its "
                     "numbers would not describe the simulator. Build "
                     "with -DCMAKE_BUILD_TYPE=RelWithDebInfo and no "
                     "sanitizer.\n",
                     buildProblem, NA_PERFBENCH_BUILD_TYPE);
        return 3;
    }
#if defined(__clang__)
    const char *compiler = "clang++ " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "g++ " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    std::printf("perfbench: build %s, compiler %s, nproc %u\n",
                NA_PERFBENCH_BUILD_TYPE, compiler,
                std::thread::hardware_concurrency());
    sim::setQuiet(true);
    // One directory per process, so concurrent runs never share a stream.
    const RunDir run_dir(opt.outDir + "/" + std::to_string(::getpid()));
    opt.outDir = run_dir.path.string();
    if (opt.selfTest)
        return runSelfTest(opt);

    const std::optional<Workload> w = makeWorkload(opt.workload, opt.seed);
    if (!w) {
        std::fprintf(stderr, "error: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    if (!opt.writeReferencePath.empty())
        return runWriteReference(*w, opt);

    std::optional<Reference> ref;
    if (opt.seed == defaultSeed) {
        const std::string path = "perfbench/reference/" + w->name + ".ref";
        ref = loadReference(path);
        if (!ref) {
            std::fprintf(stderr, "error: no reference at %s\n",
                         path.c_str());
            return 2;
        }
    }
    std::printf("workload %s, seed %llu%s, %zu points, trace %d\n",
                w->name.c_str(), static_cast<unsigned long long>(opt.seed),
                ref ? " (checked against the reference)"
                    : " (invariants only)",
                w->points.size(), opt.trace);
    const Reference *refp = ref ? &*ref : nullptr;
    return opt.trace ? runTraced(*w, opt, refp) : runTimed(*w, opt, refp);
}

} // namespace

} // namespace na::perfbench

int
main(int argc, char **argv)
{
    try {
        return na::perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
