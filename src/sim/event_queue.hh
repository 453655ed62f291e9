/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Every timed behaviour in the simulator (packet arrivals, CPU work-chunk
 * completions, timer ticks, scheduler balancing) is an Event scheduled on
 * one global EventQueue. Events at the same tick are delivered in
 * (priority, insertion-order) order so runs are deterministic.
 *
 * The queue is an indexed binary min-heap over caller-owned events:
 *  - scheduling is allocation-free (the heap is a plain vector);
 *  - every event records its heap slot, so deschedule() removes that
 *    slot in O(log n) without a search. The heap holds exactly the
 *    scheduled events, and a descheduled event is referenced nowhere,
 *    so its owner may destroy it at once;
 *  - the queue owns no events.
 *
 * Delivery order is fixed by the (when, priority, seq) comparator, a
 * strict total order (seq is unique and reschedule() takes a fresh
 * one), so any heap over the same entries pops in the same sequence.
 */

#ifndef NETAFFINITY_SIM_EVENT_QUEUE_HH
#define NETAFFINITY_SIM_EVENT_QUEUE_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
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
    bool scheduled() const { return _slot != noSlot; }

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

    static constexpr std::size_t noSlot =
        std::numeric_limits<std::size_t>::max();

    std::string _name;
    int _priority;
    Tick _when = maxTick;
    std::uint64_t _seq = 0; ///< insertion order for deterministic ties
    std::size_t _slot = noSlot; ///< heap index while scheduled
};

/** An Event that invokes a std::function when processed. */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::string name, std::function<void()> fn,
                int priority = defaultPrio);

    void process() override;

  private:
    std::function<void()> fn;
};

/**
 * The global time-ordered event queue.
 *
 * Owns current simulated time. Does not own events: the creator keeps
 * each one alive while it is scheduled.
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

    /** @return true if no events are pending. */
    bool empty() const { return heap.empty(); }

    /** @return number of pending events. */
    std::size_t size() const { return heap.size(); }

    /** @return heap slots in use; always equal to size(). */
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
    /**
     * A heap slot: the event's ordering key, copied for cheap sifts.
     * Ordered by (when, priority, seq); seq is unique, so ev never
     * decides.
     */
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;

        friend auto operator<=>(const Entry &, const Entry &) = default;
    };

    std::vector<Entry> heap; ///< binary min-heap on (when, priority, seq)
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numProcessed = 0;

    std::uint64_t stallThreshold = 0; ///< 0 = guard disabled
    Tick stallTick = 0;               ///< tick the guard is counting at
    std::uint64_t stallCount = 0;     ///< events fired at stallTick

    /** Store @p e in slot @p i and record the slot in its event. */
    void place(std::size_t i, const Entry &e);

    /** Restore heap order after slot @p i was overwritten. */
    void sift(std::size_t i);

    /** Remove slot @p i, leaving its event unscheduled. */
    void removeAt(std::size_t i);
};

} // namespace na::sim

#endif // NETAFFINITY_SIM_EVENT_QUEUE_HH
