#include "src/core/results_json.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <stdexcept>

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

/** Throw "json: field '<name>' <why>", the json accessors' form. */
[[noreturn]] void
badField(const std::string &name, const std::string &why)
{
    throw std::runtime_error("json: field '" + name + "' " + why);
}

/** Throw: field @p name holds @p token, which the writer never emits. */
[[noreturn]] void
badToken(const std::string &name, const std::string &token)
{
    badField(name, "= \"" + token + "\" is not a known token");
}

/** @return the items of list field @p name of @p v. */
const std::vector<Value> &
list(const Value &v, const std::string &name)
{
    const Value &f = v.field(name);
    if (!f.isArray())
        badField(name, "is not a list");
    return f.items;
}

/** @return list field @p name of @p v, every item a uint64. */
std::vector<std::uint64_t>
u64List(const Value &v, const std::string &name)
{
    std::vector<std::uint64_t> out;
    for (const Value &item : list(v, name))
        out.push_back(item.as<std::uint64_t>(name));
    return out;
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
    for (const Value &wv : list(iv, "windows")) {
        prof::IntervalWindow w;
        w.start = wv.u64("start");
        w.end = wv.u64("end");
        w.rxFramesPerQueue = u64List(wv, "rx_frames_per_queue");
        w.binDeltas = u64List(wv, "deltas");
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
    for (const Value &bv : list(fv, "size_buckets")) {
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
    const std::vector<std::uint64_t> hist =
        u64List(rv, "ooo_depth_hist");
    if (hist.size() != ro.oooDepthHist.size()) {
        badField("ooo_depth_hist",
                 sim::format("holds %zu integers, not %zu", hist.size(),
                             ro.oooDepthHist.size()));
    }
    std::copy(hist.begin(), hist.end(), ro.oooDepthHist.begin());
    ro.dupAckBursts = rv.u64("dup_ack_bursts");
    ro.retransmits = rv.u64("retransmits");
    ro.spuriousRetransmits = rv.u64("spurious_retransmits");
    ro.senderHops = rv.u64("sender_hops");
    return ro;
}

workload::Kind
parseWorkloadToken(const std::string &tok)
{
    try {
        return workload::kindFromToken(tok);
    } catch (const std::runtime_error &) {
        badToken("workload", tok);
    }
}

workload::TtcpMode
parseModeToken(const std::string &tok)
{
    if (tok == "tx")
        return workload::TtcpMode::Transmit;
    if (tok == "rx")
        return workload::TtcpMode::Receive;
    badToken("mode", tok);
}

AffinityMode
parseAffinityToken(const std::string &tok)
{
    for (AffinityMode a : allAffinityModes) {
        if (tok == affinityToken(a))
            return a;
    }
    badToken("affinity", tok);
}

/** @return @p tok after checking it names a net::SteeringKind. */
const std::string &
checkSteeringToken(const std::string &tok)
{
    for (net::SteeringKind k : net::allSteeringKinds) {
        if (tok == net::steeringKindName(k))
            return tok;
    }
    badToken("steering", tok);
}

} // namespace

namespace detail {

void
writePointRecord(std::ostream &os, const CampaignPoint &point,
                 const RunResult &r)
{
    const SystemConfig &c = point.config;
    const bool is_ttcp = c.workloadKind() == workload::Kind::Ttcp;
    const int cpus = c.platform.numCpus;
    os << "\"label\": \"" << jsonEscape(point.label) << "\", ";
    os << "\"config\": {\"workload\": \""
       << workload::kindToken(c.workloadKind()) << "\", \"mode\": \""
       << (is_ttcp ? modeToken(c.ttcp().mode) : "-")
       << "\", \"msg_size\": " << (is_ttcp ? c.ttcp().msgSize : 0)
       << ", \"affinity\": \"" << affinityToken(c.affinity)
       << "\", \"connections\": " << c.numConnections << ", \"cpus\": "
       << cpus << ", \"seed\": " << c.platform.seed
       << ", \"steering\": \"" << net::steeringKindName(c.steering.kind)
       << "\", \"queues\": " << c.steering.numQueues
       << ", \"faults\": \""
       << jsonEscape(c.faults.enabled() ? c.faults.label() : "off")
       << "\"}, ";
    os << "\"result\": {";
    os << "\"seconds\": " << dbl(r.seconds) << ", ";
    os << "\"payload_bytes\": " << r.payloadBytes << ", ";
    os << "\"throughput_mbps\": " << dbl(r.throughputMbps) << ", ";
    os << "\"cpu_util\": " << dbl(r.cpuUtil) << ", ";
    os << "\"ghz_per_gbps\": " << dbl(r.ghzPerGbps) << ", ";
    os << "\"util_per_cpu\": [";
    for (int i = 0; i < cpus; ++i) {
        os << (i ? ", " : "")
           << dbl(r.utilPerCpu[static_cast<std::size_t>(i)]);
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
    rec.workload = cfg.str("workload");
    if (parseWorkloadToken(rec.workload) == workload::Kind::Ttcp)
        rec.mode = parseModeToken(cfg.str("mode"));
    rec.msgSize = cfg.integer<std::uint32_t>("msg_size");
    rec.affinity = parseAffinityToken(cfg.str("affinity"));
    rec.connections = cfg.integer<int>("connections");
    rec.cpus = cfg.integer<int>("cpus");
    rec.seed = cfg.u64("seed");
    rec.steering = checkSteeringToken(cfg.str("steering"));
    rec.queues = cfg.integer<int>("queues");
    rec.faults = cfg.str("faults");
    rec.result.steeringPolicy = rec.steering;

    const Value &res = pv.field("result");
    rec.result.seconds = res.num("seconds");
    rec.result.payloadBytes = res.u64("payload_bytes");
    rec.result.throughputMbps = res.num("throughput_mbps");
    rec.result.cpuUtil = res.num("cpu_util");
    rec.result.ghzPerGbps = res.num("ghz_per_gbps");
    // The writer emits one entry per CPU, failed points included.
    const std::vector<Value> &util = list(res, "util_per_cpu");
    if (rec.cpus < 0 || util.size() != static_cast<std::size_t>(rec.cpus) ||
        util.size() > rec.result.utilPerCpu.size()) {
        badField("util_per_cpu",
                 sim::format("holds %zu entries for 'cpus' = %d (at "
                             "most %zu)",
                             util.size(), rec.cpus,
                             rec.result.utilPerCpu.size()));
    }
    for (std::size_t c = 0; c < util.size(); ++c) {
        if (!util[c].isNumber())
            badField("util_per_cpu", sim::format("entry %zu is not a "
                                                 "number", c));
        rec.result.utilPerCpu[c] = util[c].number;
    }
    rec.result.irqs = res.u64("irqs");
    rec.result.ipis = res.u64("ipis");
    rec.result.migrations = res.u64("migrations");
    rec.result.contextSwitches = res.u64("context_switches");
    rec.result.txDropsRingFull = res.u64("tx_drops_ring_full");
    rec.result.rxDropsRingFull = res.u64("rx_drops_ring_full");
    rec.result.rxFramesPerQueue = u64List(res, "rx_frames_per_queue");
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
    // The writer emits exactly one entry per prof::Event.
    const Value &events = res.field("event_totals");
    if (!events.isObject())
        badField("event_totals", "is not an object");
    for (std::size_t e = 0; e < prof::numEvents; ++e) {
        const std::string name(prof::eventName(static_cast<prof::Event>(e)));
        auto it = events.fields.find(name);
        if (it == events.fields.end())
            badField("event_totals", "has no entry '" + name + "'");
        rec.result.eventTotals[e] = it->second.as<std::uint64_t>(name);
    }
    if (events.fields.size() != prof::numEvents) {
        // Every event's entry was found, so some other entry is extra.
        for (const auto &entry : events.fields) {
            const std::string &name = entry.first;
            if (std::none_of(prof::allEvents.begin(), prof::allEvents.end(),
                             [&](prof::Event ev) {
                                 return prof::eventName(ev) == name;
                             }))
                badField("event_totals", "has unknown entry '" + name + "'");
        }
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
        detail::writePointRecord(os, results.point(i), results.result(i));
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

} // namespace na::core
