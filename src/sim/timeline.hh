/**
 * @file
 * Chrome trace-event timeline backend for the TraceFlag categories.
 *
 * Where NA_TRACE_LOG prints lines, a TimelineTracer buffers structured
 * events — context switches, IRQ deliveries, NAPI polls, softirq runs,
 * per-packet lifecycle spans — and serializes them as Chrome
 * trace-event JSON, loadable in chrome://tracing or Perfetto.
 *
 * One tracer instance belongs to one System (campaign workers each get
 * their own; nothing here is shared), attached through the Kernel. The
 * hot-path cost when no tracer is attached is a single null check.
 *
 * Mapping to the trace-event format:
 *  - pid is always 0 (one simulated host);
 *  - CPU-scoped events use tid = CPU id;
 *  - packet lifecycle spans are async ("b"/"e") events keyed by an id
 *    derived from (connection, sequence number), under flow tids;
 *  - ts/dur are microseconds of *simulated* time (ticks / freq).
 *
 * Events are buffered with tick timestamps and stable-sorted at
 * writeJson() time, so emitted ts values are monotonic per tid even
 * though producers (e.g. ExecContext::estimatedNow()) can run ahead of
 * the event queue's clock.
 */

#ifndef NETAFFINITY_SIM_TIMELINE_HH
#define NETAFFINITY_SIM_TIMELINE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/trace.hh"
#include "src/sim/types.hh"

namespace na::sim {

/** Buffering Chrome trace-event backend. */
class TimelineTracer
{
  public:
    /** tid offset for per-connection packet-lifecycle rows. */
    static constexpr int flowTidBase = 1000;

    /** @param category_mask TraceFlag bits to record (default: all). */
    explicit TimelineTracer(
        std::uint32_t category_mask =
            static_cast<std::uint32_t>(TraceFlag::All));

    /** @return true if @p flag 's events are being recorded. */
    bool
    wants(TraceFlag flag) const
    {
        return (catMask & static_cast<std::uint32_t>(flag)) != 0;
    }

    /** Zero-duration marker (ph "i") on @p tid. */
    void instant(TraceFlag cat, int tid, Tick ts, std::string name);

    /** Complete duration event (ph "X") covering [ts, ts+dur). */
    void complete(TraceFlag cat, int tid, Tick ts, Tick dur,
                  std::string name);

    /** Open an async span (ph "b") with correlation @p id. */
    void asyncBegin(TraceFlag cat, std::uint64_t id, Tick ts,
                    std::string name);

    /** Close the async span @p id (ph "e"; same name as the begin). */
    void asyncEnd(TraceFlag cat, std::uint64_t id, Tick ts,
                  std::string name);

    /** @return buffered events (all categories). */
    std::size_t eventCount() const { return events.size(); }

    /** Drop everything buffered (System::beginMeasurement does this so
     *  files cover the measurement window, not warmup). */
    void clear() { events.clear(); }

    /**
     * Serialize as {"traceEvents": [...]} with ts in microseconds.
     * @param freq_hz tick rate used for the tick -> us conversion
     */
    void writeJson(std::ostream &os, double freq_hz) const;

    /** writeJson() to @p path. @return false on I/O failure. */
    bool writeJsonFile(const std::string &path, double freq_hz) const;

  private:
    struct Ev
    {
        char ph;           ///< 'i', 'X', 'b', or 'e'
        TraceFlag cat;
        int tid;
        Tick ts;
        Tick dur;          ///< 'X' only
        std::uint64_t id;  ///< 'b'/'e' only
        std::string name;
    };

    void push(char ph, TraceFlag cat, int tid, Tick ts, Tick dur,
              std::uint64_t id, std::string name);

    std::uint32_t catMask;
    std::vector<Ev> events;
};

} // namespace na::sim

#endif // NETAFFINITY_SIM_TIMELINE_HH
