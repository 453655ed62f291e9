/**
 * @file
 * A pool of reusable per-packet events.
 *
 * The wire and the NIC schedule one event per frame in flight. Building
 * and destroying an event per frame would put a heap allocation (and a
 * name string) on the per-packet path, so each owner keeps an
 * EventPool instead: it owns every event it ever made and hands back
 * idle ones, last released first. It grows only to the in-flight
 * high-water mark, so the steady-state path allocates nothing.
 *
 * Reuse cannot reorder anything: delivery order comes from the queue's
 * (when, priority, seq), not from which object carries a packet.
 */

#ifndef NETAFFINITY_SIM_EVENT_POOL_HH
#define NETAFFINITY_SIM_EVENT_POOL_HH

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"

namespace na::sim {

/** Owns pooled events of type @p E scheduled on one queue. */
template <class E>
class EventPool
{
  public:
    explicit EventPool(EventQueue &eq_ref) : eq(eq_ref) {}

    /** The queue may outlive the pool: take in-flight events off it. */
    ~EventPool()
    {
        for (auto &ev : all) {
            if (ev->scheduled())
                eq.deschedule(ev.get());
        }
    }

    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    /**
     * @return the most recently released idle event, or a new one
     *         constructed from @p args when none is idle.
     */
    template <class... Args>
    E *
    acquire(Args &&...args)
    {
        if (!idle.empty()) {
            E *ev = idle.back();
            idle.pop_back();
            return ev;
        }
        all.push_back(std::make_unique<E>(std::forward<Args>(args)...));
        return all.back().get();
    }

    /** Return @p ev, which this pool made, once it has fired. */
    void release(E *ev) { idle.push_back(ev); }

  private:
    EventQueue &eq;
    std::vector<std::unique_ptr<E>> all; ///< every event ever made
    std::vector<E *> idle;               ///< released, last on top
};

} // namespace na::sim

#endif // NETAFFINITY_SIM_EVENT_POOL_HH
