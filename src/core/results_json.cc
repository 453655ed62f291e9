#include "src/core/results_json.hh"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/json.hh"
#include "src/core/results_record.hh"
#include "src/prof/bins.hh"
#include "src/sim/logging.hh"

namespace na::core {

namespace {

using json::Value;

const char *
modeToken(workload::TtcpMode m)
{
    return m == workload::TtcpMode::Transmit ? "tx" : "rx";
}

const char *
affinityToken(AffinityMode a)
{
    switch (a) {
      case AffinityMode::None: return "none";
      case AffinityMode::Irq:  return "irq";
      case AffinityMode::Proc: return "proc";
      case AffinityMode::Full: return "full";
      default:                 return "?";
    }
}

/**
 * Shortest round-trip representation via std::to_chars. A printf
 * "%.17g" would be both longer and locale-dependent (LC_NUMERIC could
 * emit a comma decimal point, silently corrupting the file).
 */
std::string
dbl(double v)
{
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "0";
    return std::string(buf, ptr);
}

void
writeIntervals(std::ostream &os, const prof::IntervalSeries &s)
{
    os << "\"intervals\": {\"interval_ticks\": " << s.intervalTicks
       << ", \"num_cpus\": " << s.numCpus << ", \"num_queues\": "
       << s.numQueues << ", \"windows\": [";
    for (std::size_t w = 0; w < s.windows.size(); ++w) {
        const prof::IntervalWindow &win = s.windows[w];
        os << (w ? ", " : "");
        os << "{\"start\": " << win.start << ", \"end\": " << win.end
           << ", \"rx_frames_per_queue\": [";
        for (std::size_t q = 0; q < win.rxFramesPerQueue.size(); ++q)
            os << (q ? ", " : "") << win.rxFramesPerQueue[q];
        os << "], \"deltas\": [";
        for (std::size_t i = 0; i < win.binDeltas.size(); ++i)
            os << (i ? ", " : "") << win.binDeltas[i];
        os << "]}";
    }
    os << "]}, ";
}

prof::IntervalSeries
readIntervals(const Value &iv)
{
    prof::IntervalSeries s;
    s.intervalTicks = iv.u64("interval_ticks");
    s.numCpus = iv.integer<int>("num_cpus");
    s.numQueues = iv.integer<int>("num_queues");
    const Value &windows = iv.field("windows");
    if (!windows.isArray())
        throw std::runtime_error(
            "results json: intervals 'windows' is not a list");
    for (const Value &wv : windows.items) {
        prof::IntervalWindow w;
        w.start = wv.u64("start");
        w.end = wv.u64("end");
        for (const Value &qv : wv.field("rx_frames_per_queue").items)
            w.rxFramesPerQueue.push_back(
                qv.as<std::uint64_t>("rx_frames_per_queue"));
        for (const Value &dv : wv.field("deltas").items)
            w.binDeltas.push_back(dv.as<std::uint64_t>("deltas"));
        s.windows.push_back(std::move(w));
    }
    return s;
}

void
writeFlows(std::ostream &os, const FlowStats &f)
{
    os << "\"flows\": {";
    os << "\"started\": " << f.started << ", \"completed\": "
       << f.completed << ", \"accepted\": " << f.accepted
       << ", \"retired\": " << f.retired;
    os << ", \"accept_drops_backlog\": " << f.acceptDropsBacklog
       << ", \"accept_drops_pool\": " << f.acceptDropsPool
       << ", \"unmatched_frames\": " << f.unmatchedFrames;
    os << ", \"deferred_arrivals\": " << f.deferredArrivals
       << ", \"flow_migrations\": " << f.flowMigrations
       << ", \"flow_learns\": " << f.flowLearns
       << ", \"flow_learn_drops\": " << f.flowLearnDrops
       << ", \"ooo_arrivals\": " << f.oooArrivals
       << ", \"live_connections\": " << f.liveConnections;
    os << ", \"size_buckets\": [";
    for (std::size_t b = 0; b < f.sizeBuckets.size(); ++b) {
        const FlowSizeBucketStat &s = f.sizeBuckets[b];
        os << (b ? ", " : "") << "{\"max_bytes\": " << s.maxBytes
           << ", \"flows\": " << s.flows << ", \"bytes\": " << s.bytes
           << "}";
    }
    os << "]}, ";
}

FlowStats
readFlows(const Value &fv)
{
    FlowStats f;
    f.started = fv.u64("started");
    f.completed = fv.u64("completed");
    f.accepted = fv.u64("accepted");
    f.retired = fv.u64("retired");
    f.acceptDropsBacklog = fv.u64("accept_drops_backlog");
    f.acceptDropsPool = fv.u64("accept_drops_pool");
    f.unmatchedFrames = fv.u64("unmatched_frames");
    f.deferredArrivals = fv.u64("deferred_arrivals");
    f.flowMigrations = fv.u64("flow_migrations");
    f.flowLearns = fv.u64("flow_learns");
    if (fv.has("flow_learn_drops")) // v6+
        f.flowLearnDrops = fv.u64("flow_learn_drops");
    f.oooArrivals = fv.u64("ooo_arrivals");
    f.liveConnections = fv.u64("live_connections");
    const Value &buckets = fv.field("size_buckets");
    if (!buckets.isArray())
        throw std::runtime_error(
            "results json: flows 'size_buckets' is not a list");
    for (const Value &bv : buckets.items) {
        FlowSizeBucketStat s;
        s.maxBytes = bv.u64("max_bytes");
        s.flows = bv.u64("flows");
        s.bytes = bv.u64("bytes");
        f.sizeBuckets.push_back(s);
    }
    return f;
}

void
writeReorder(std::ostream &os, const ReorderStats &ro)
{
    os << "\"reorder\": {";
    os << "\"ooo_arrivals\": " << ro.oooArrivals
       << ", \"ooo_windows\": " << ro.oooWindows
       << ", \"ooo_window_ticks\": " << ro.oooWindowTicks;
    os << ", \"ooo_depth_hist\": [";
    for (std::size_t b = 0; b < ro.oooDepthHist.size(); ++b)
        os << (b ? ", " : "") << ro.oooDepthHist[b];
    os << "]";
    os << ", \"dup_ack_bursts\": " << ro.dupAckBursts
       << ", \"retransmits\": " << ro.retransmits
       << ", \"spurious_retransmits\": " << ro.spuriousRetransmits
       << ", \"sender_hops\": " << ro.senderHops;
    os << "}, ";
}

ReorderStats
readReorder(const Value &rv)
{
    ReorderStats ro;
    ro.oooArrivals = rv.u64("ooo_arrivals");
    ro.oooWindows = rv.u64("ooo_windows");
    ro.oooWindowTicks = rv.u64("ooo_window_ticks");
    const Value &hist = rv.field("ooo_depth_hist");
    if (!hist.isArray())
        throw std::runtime_error(
            "results json: reorder 'ooo_depth_hist' is not a list");
    for (std::size_t b = 0;
         b < hist.items.size() && b < ro.oooDepthHist.size(); ++b)
        ro.oooDepthHist[b] =
            hist.items[b].as<std::uint64_t>("ooo_depth_hist");
    ro.dupAckBursts = rv.u64("dup_ack_bursts");
    ro.retransmits = rv.u64("retransmits");
    ro.spuriousRetransmits = rv.u64("spurious_retransmits");
    ro.senderHops = rv.u64("sender_hops");
    return ro;
}

workload::TtcpMode
parseModeToken(const std::string &tok)
{
    if (tok == "tx")
        return workload::TtcpMode::Transmit;
    if (tok == "rx")
        return workload::TtcpMode::Receive;
    throw std::runtime_error("results json: bad mode token '" + tok +
                             "'");
}

AffinityMode
parseAffinityToken(const std::string &tok)
{
    for (AffinityMode a : allAffinityModes) {
        if (tok == affinityToken(a))
            return a;
    }
    throw std::runtime_error("results json: bad affinity token '" + tok +
                             "'");
}

} // namespace

namespace detail {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

PointRecordView
recordView(const CampaignPoint &point, const RunResult &result)
{
    const SystemConfig &c = point.config;
    const bool is_ttcp = c.workloadKind() == workload::Kind::Ttcp;
    PointRecordView v;
    v.label = &point.label;
    v.workload = std::string(workload::kindToken(c.workloadKind()));
    v.mode = is_ttcp ? modeToken(c.ttcp().mode) : "-";
    v.msgSize = is_ttcp ? c.ttcp().msgSize : 0;
    v.affinity = affinityToken(c.affinity);
    v.connections = c.numConnections;
    v.cpus = c.platform.numCpus;
    v.seed = c.platform.seed;
    v.steering = std::string(net::steeringKindName(c.steering.kind));
    v.queues = c.steering.numQueues;
    v.faults = c.faults.enabled() ? c.faults.label() : "off";
    v.result = &result;
    return v;
}

PointRecordView
recordView(const JsonRunRecord &rec)
{
    PointRecordView v;
    v.label = &rec.label;
    v.workload = rec.workload;
    v.mode = rec.workload == "ttcp" ? modeToken(rec.mode) : "-";
    v.msgSize = rec.msgSize;
    v.affinity = affinityToken(rec.affinity);
    v.connections = rec.connections;
    v.cpus = rec.cpus;
    v.seed = rec.seed;
    v.steering = rec.steering;
    v.queues = rec.queues;
    v.faults = rec.faults;
    v.result = &rec.result;
    return v;
}

void
writePointRecord(std::ostream &os, const PointRecordView &v)
{
    const RunResult &r = *v.result;
    os << "\"label\": \"" << jsonEscape(*v.label) << "\", ";
    os << "\"config\": {\"workload\": \"" << v.workload
       << "\", \"mode\": \"" << v.mode << "\", \"msg_size\": "
       << v.msgSize << ", \"affinity\": \"" << v.affinity
       << "\", \"connections\": " << v.connections << ", \"cpus\": "
       << v.cpus << ", \"seed\": " << v.seed << ", \"steering\": \""
       << v.steering << "\", \"queues\": " << v.queues
       << ", \"faults\": \"" << jsonEscape(v.faults) << "\"}, ";
    os << "\"result\": {";
    os << "\"seconds\": " << dbl(r.seconds) << ", ";
    os << "\"payload_bytes\": " << r.payloadBytes << ", ";
    os << "\"throughput_mbps\": " << dbl(r.throughputMbps) << ", ";
    os << "\"cpu_util\": " << dbl(r.cpuUtil) << ", ";
    os << "\"ghz_per_gbps\": " << dbl(r.ghzPerGbps) << ", ";
    os << "\"util_per_cpu\": [";
    for (int c = 0; c < v.cpus; ++c) {
        os << (c ? ", " : "")
           << dbl(r.utilPerCpu[static_cast<std::size_t>(c)]);
    }
    os << "], ";
    os << "\"irqs\": " << r.irqs << ", \"ipis\": " << r.ipis
       << ", \"migrations\": " << r.migrations
       << ", \"context_switches\": " << r.contextSwitches << ", ";
    os << "\"tx_drops_ring_full\": " << r.txDropsRingFull
       << ", \"rx_drops_ring_full\": " << r.rxDropsRingFull << ", ";
    os << "\"rx_frames_per_queue\": [";
    for (std::size_t q = 0; q < r.rxFramesPerQueue.size(); ++q)
        os << (q ? ", " : "") << r.rxFramesPerQueue[q];
    os << "], ";
    if (r.failed) {
        os << "\"failure\": {\"reason\": \""
           << jsonEscape(r.failure.reason)
           << "\", \"config_summary\": \""
           << jsonEscape(r.failure.configSummary)
           << "\", \"ticks_reached\": " << r.failure.ticksReached
           << ", \"attempts\": " << r.failure.attempts << "}, ";
    }
    if (r.flows.any())
        writeFlows(os, r.flows);
    if (r.reorder.any())
        writeReorder(os, r.reorder);
    if (!r.intervals.empty())
        writeIntervals(os, r.intervals);
    os << "\"event_totals\": {";
    for (std::size_t e = 0; e < prof::numEvents; ++e) {
        os << (e ? ", " : "") << '"'
           << prof::eventName(static_cast<prof::Event>(e)) << "\": "
           << r.eventTotals[e];
    }
    os << "}}";
}

JsonRunRecord
parsePointRecord(const Value &pv)
{
    JsonRunRecord rec;
    rec.label = pv.str("label");

    const Value &cfg = pv.field("config");
    if (cfg.has("workload"))
        rec.workload = cfg.str("workload");
    if (rec.workload == "ttcp")
        rec.mode = parseModeToken(cfg.str("mode"));
    rec.msgSize = cfg.integer<std::uint32_t>("msg_size");
    rec.affinity = parseAffinityToken(cfg.str("affinity"));
    rec.connections = cfg.integer<int>("connections");
    rec.cpus = cfg.integer<int>("cpus");
    rec.seed = cfg.u64("seed");
    rec.steering = cfg.str("steering");
    rec.queues = cfg.integer<int>("queues");
    if (cfg.has("faults"))
        rec.faults = cfg.str("faults");
    rec.result.steeringPolicy = rec.steering;

    const Value &res = pv.field("result");
    rec.result.seconds = res.num("seconds");
    rec.result.payloadBytes = res.u64("payload_bytes");
    rec.result.throughputMbps = res.num("throughput_mbps");
    rec.result.cpuUtil = res.num("cpu_util");
    rec.result.ghzPerGbps = res.num("ghz_per_gbps");
    const Value &util = res.field("util_per_cpu");
    for (std::size_t c = 0;
         c < util.items.size() && c < rec.result.utilPerCpu.size();
         ++c) {
        rec.result.utilPerCpu[c] = util.items[c].number;
    }
    rec.result.irqs = res.u64("irqs");
    rec.result.ipis = res.u64("ipis");
    rec.result.migrations = res.u64("migrations");
    rec.result.contextSwitches = res.u64("context_switches");
    if (res.has("tx_drops_ring_full"))
        rec.result.txDropsRingFull = res.u64("tx_drops_ring_full");
    if (res.has("rx_drops_ring_full"))
        rec.result.rxDropsRingFull = res.u64("rx_drops_ring_full");
    const Value &per_queue = res.field("rx_frames_per_queue");
    for (const Value &qv : per_queue.items)
        rec.result.rxFramesPerQueue.push_back(
            qv.as<std::uint64_t>("rx_frames_per_queue"));
    if (res.has("failure")) {
        const Value &fv = res.field("failure");
        rec.result.failed = true;
        rec.result.failure.reason = fv.str("reason");
        rec.result.failure.configSummary = fv.str("config_summary");
        rec.result.failure.ticksReached = fv.u64("ticks_reached");
        rec.result.failure.attempts = fv.integer<int>("attempts");
    }
    if (res.has("flows"))
        rec.result.flows = readFlows(res.field("flows"));
    if (res.has("reorder")) // v6+
        rec.result.reorder = readReorder(res.field("reorder"));
    if (res.has("intervals"))
        rec.result.intervals = readIntervals(res.field("intervals"));
    const Value &events = res.field("event_totals");
    for (std::size_t e = 0; e < prof::numEvents; ++e) {
        const auto ev = static_cast<prof::Event>(e);
        auto it = events.fields.find(std::string(prof::eventName(ev)));
        if (it != events.fields.end())
            rec.result.eventTotals[e] =
                it->second.as<std::uint64_t>(it->first);
    }
    return rec;
}

} // namespace detail

void
writeResultsJson(std::ostream &os, const ResultSet &results)
{
    os << "{\n";
    os << "  \"schema_version\": " << resultsSchemaVersion << ",\n";
    os << "  \"campaign_seed\": " << results.campaignSeed << ",\n";
    os << "  \"threads\": " << results.threadsUsed << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << (i ? ",\n    {" : "\n    {");
        detail::writePointRecord(
            os, detail::recordView(results.point(i), results.result(i)));
        os << "}";
    }
    os << "\n  ]\n}\n";
}

bool
writeResultsJsonFile(const std::string &path, const ResultSet &results)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeResultsJson(out, results);
    return out.good();
}

JsonCampaign
readResultsJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const Value root = json::parse(buf.str());
    if (!root.isObject())
        throw std::runtime_error("results json: root is not an object");
    const int version = root.integer<int>("schema_version");
    // Each version is the previous plus optional/additive fields
    // (v3: intervals; v4: faults token, ring-full drops, failure
    // block; v5: workload token and the optional "flows" block;
    // v6: the optional "reorder" block and flow_learn_drops), so
    // one reader with has() guards serves all of them.
    if (version < 2 || version > resultsSchemaVersion)
        throw std::runtime_error(
            "results json: unsupported schema_version");

    JsonCampaign campaign;
    campaign.campaignSeed = root.u64("campaign_seed");
    campaign.threads = root.integer<int>("threads");

    const Value &points = root.field("points");
    if (!points.isArray())
        throw std::runtime_error("results json: 'points' is not a list");

    for (const Value &pv : points.items)
        campaign.points.push_back(detail::parsePointRecord(pv));
    return campaign;
}

} // namespace na::core
