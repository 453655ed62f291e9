/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Every timed behaviour in the simulator (packet arrivals, CPU work-chunk
 * completions, timer ticks, scheduler balancing) is an Event scheduled on
 * one global EventQueue. Events at the same tick are delivered in
 * (priority, insertion-order) order so runs are deterministic.
 *
 * The queue is built for the per-packet hot path:
 *  - scheduling is allocation-free (a binary heap over a plain vector);
 *  - one-shot callbacks created through scheduleLambda() are drawn from
 *    a free list and recycled after firing instead of new/delete'd;
 *  - deschedule() is O(1) lazy deletion, and the heap is compacted in
 *    place once stale entries outnumber live ones, so
 *    deschedule/reschedule storms cannot grow the heap unboundedly.
 *
 * None of this can change delivery order: the (when, priority, seq)
 * comparator is a strict total order (seq is unique), so any heap over
 * the same live entries pops in the same sequence.
 */

#ifndef NETAFFINITY_SIM_EVENT_QUEUE_HH
#define NETAFFINITY_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/sim/types.hh"

namespace na::sim {

class EventQueue;

/**
 * A schedulable unit of simulated behaviour.
 *
 * Subclass and implement process(), or use LambdaEvent for one-off
 * callbacks. Events do not own themselves; the creator controls lifetime
 * and must keep the event alive while scheduled.
 */
class Event
{
  public:
    /**
     * Delivery priorities for events that fire on the same tick.
     * Lower numeric value is delivered first.
     */
    enum Priority
    {
        interruptPrio = 0, ///< hardware interrupt delivery
        defaultPrio = 10,  ///< ordinary simulation events
        schedulerPrio = 20,///< OS scheduling decisions
        statsPrio = 30,    ///< sampling / statistics
    };

    explicit Event(std::string name = {}, int priority = defaultPrio);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called when the event fires. */
    virtual void process() = 0;

    /** @return true if currently scheduled on a queue. */
    bool scheduled() const { return _scheduled; }

    /** @return tick this event is scheduled for (maxTick if not). */
    Tick when() const { return _when; }

    /** @return descriptive name for tracing and panics. */
    const std::string &name() const;

    /** @return same-tick delivery priority. */
    int priority() const { return _priority; }

    /** Rename (pooled events reuse one object for many callbacks). */
    void setName(std::string name) { _name = std::move(name); }

  private:
    friend class EventQueue;

    std::string _name;
    int _priority;
    bool _scheduled = false;
    bool _queueOwned = false;   ///< created (and recycled) by the queue
    std::uint32_t _heapRefs = 0;///< entries (live + stale) in the heap
    Tick _when = maxTick;
    std::uint64_t _seq = 0; ///< insertion order for deterministic ties
};

/** An Event that invokes a std::function when processed. */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::string name, std::function<void()> fn,
                int priority = defaultPrio);

    void process() override;

  private:
    friend class EventQueue;
    std::function<void()> fn;
};

/**
 * The global time-ordered event queue.
 *
 * Owns current simulated time. Does not own events, except those
 * scheduled through scheduleLambda(), which are recycled into an
 * internal free list after firing and freed at queue destruction.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule @p ev at absolute time @p when.
     * @pre when >= now() and ev not already scheduled.
     */
    void schedule(Event *ev, Tick when);

    /** Remove @p ev from the queue. No-op if not scheduled. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callback; the queue owns the underlying event
     * and recycles it after it fires.
     *
     * The name is stored only while TraceFlag::Event tracing is enabled
     * — hot-path callers should avoid building per-call name strings at
     * all (see net::Wire/net::Nic, which use pooled typed events).
     *
     * @return the created event (valid until it fires).
     */
    Event *scheduleLambda(Tick when, std::string name,
                          std::function<void()> fn,
                          int priority = Event::defaultPrio);

    /** @return true if no live events are pending. */
    bool empty() const { return heap.size() == numStale; }

    /** @return number of pending (live, not descheduled) events. */
    std::size_t size() const { return heap.size() - numStale; }

    /**
     * @return raw heap slots, including stale lazily-deleted entries
     *         (observability for compaction tests and stats).
     */
    std::size_t heapEntries() const { return heap.size(); }

    /** @return number of events processed since construction. */
    std::uint64_t processedCount() const { return numProcessed; }

    /**
     * Run until the queue empties or simulated time would exceed
     * @p until. Events exactly at @p until are processed.
     * Advances now() to @p until (or the last event time if the queue
     * drains first and that is later).
     */
    void runUntil(Tick until);

    /** Run a single event. @return false if the queue was empty. */
    bool runOne();

    /**
     * Arm the non-progress guard: if more than @p events fire without
     * simulated time advancing, runOne() throws std::runtime_error
     * naming the stuck tick and the event that tripped the limit.
     * 0 disables the guard (the default). The largest legitimate
     * same-tick cascades (softirq storms at a timer edge) are a few
     * thousand events, so a threshold in the millions only ever fires
     * on a genuine livelock — e.g. an event that reschedules itself at
     * now().
     */
    void setStallThreshold(std::uint64_t events)
    {
        stallThreshold = events;
    }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;
    };

    struct EntryCompare
    {
        // std::push_heap/pop_heap build a max-heap, so "greater"
        // (later/lower-priority/younger) sorts away from the top —
        // identical ordering to the std::priority_queue this replaces.
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    std::vector<Entry> heap; ///< binary heap under EntryCompare
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numProcessed = 0;
    std::size_t numStale = 0; ///< stale (descheduled) entries in heap

    std::uint64_t stallThreshold = 0; ///< 0 = guard disabled
    Tick stallTick = 0;               ///< tick the guard is counting at
    std::uint64_t stallCount = 0;     ///< events fired at stallTick

    /**
     * Seqs of descheduled-but-not-yet-drained heap entries. Staleness
     * is recorded here, keyed by the entry's unique seq, so draining a
     * stale entry never dereferences its Event pointer — the owner is
     * free to destroy a descheduled event immediately (destructors
     * rely on this; the queue member typically outlives the owners).
     */
    std::unordered_set<std::uint64_t> staleSeqs;

    /** Free list of recycled queue-owned lambda events. */
    std::vector<LambdaEvent *> lambdaPool;

    /** Heap size below which compaction is never attempted. */
    static constexpr std::size_t compactMinEntries = 64;

    /** @return true if @p e still refers to a live scheduling. */
    bool live(const Entry &e) const
    {
        return staleSeqs.find(e.seq) == staleSeqs.end();
    }

    /** Pop the top heap entry (caller checked non-empty). */
    Entry popTop();

    /** Drop one heap reference; recycle idle queue-owned events. */
    void releaseRef(Event *ev);

    /** Rebuild the heap without its stale entries. */
    void compact();
};

} // namespace na::sim

#endif // NETAFFINITY_SIM_EVENT_QUEUE_HH
