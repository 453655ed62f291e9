#include "src/sim/event_queue.hh"

#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::sim {

namespace {

/** Interned fallback so unnamed events still panic readably. */
const std::string anonymousEventName = "event";

} // namespace

Event::Event(std::string name, int priority)
    : _name(std::move(name)), _priority(priority)
{
}

Event::~Event()
{
    // Owners must deschedule before destruction; we cannot reach back
    // into the queue from here (we do not know which queue), so just
    // flag the bug.
    if (scheduled())
        panic("event '%s' destroyed while scheduled", name().c_str());
}

const std::string &
Event::name() const
{
    return _name.empty() ? anonymousEventName : _name;
}

LambdaEvent::LambdaEvent(std::string name, std::function<void()> fn,
                         int priority)
    : Event(std::move(name), priority), fn(std::move(fn))
{
}

void
LambdaEvent::process()
{
    fn();
}

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Unschedule what is still pending so owners that outlive the
    // queue can destroy their events without tripping the panic above.
    for (const Entry &e : heap) {
        e.ev->_slot = Event::noSlot;
        e.ev->_when = maxTick;
    }
}

void
EventQueue::place(std::size_t i, const Entry &e)
{
    heap[i] = e;
    e.ev->_slot = i;
}

void
EventQueue::sift(std::size_t i)
{
    const Entry e = heap[i];
    // Up, while the entry beats its parent...
    while (i > 0 && e < heap[(i - 1) / 2]) {
        place(i, heap[(i - 1) / 2]);
        i = (i - 1) / 2;
    }
    // ...otherwise down, while a child beats it.
    for (std::size_t c; (c = 2 * i + 1) < heap.size(); i = c) {
        if (c + 1 < heap.size() && heap[c + 1] < heap[c])
            ++c;
        if (!(heap[c] < e))
            break;
        place(i, heap[c]);
    }
    place(i, e);
}

void
EventQueue::removeAt(std::size_t i)
{
    Event *ev = heap[i].ev;
    ev->_slot = Event::noSlot;
    ev->_when = maxTick;
    const Entry last = heap.back();
    heap.pop_back();
    if (i < heap.size()) {
        heap[i] = last;
        sift(i);
    }
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        panic("event '%s' scheduled twice", ev->name().c_str());
    if (when < curTick)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name().c_str(), (unsigned long long)when,
              (unsigned long long)curTick);
    ev->_when = when;
    ev->_seq = nextSeq++;
    heap.push_back(Entry{when, ev->priority(), ev->_seq, ev});
    sift(heap.size() - 1);
}

void
EventQueue::deschedule(Event *ev)
{
    if (ev->scheduled())
        removeAt(ev->_slot);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

bool
EventQueue::runOne()
{
    if (heap.empty())
        return false;
    const Entry e = heap.front();
    if (e.when < curTick)
        panic("event queue time went backwards");
    removeAt(0);
    curTick = e.when;
    if (stallThreshold) {
        if (e.when != stallTick) {
            stallTick = e.when;
            stallCount = 0;
        }
        if (++stallCount > stallThreshold) {
            // Livelock: time is not advancing. The event is already
            // out of the heap, so its owner can destroy it safely while
            // this exception unwinds the run.
            stallCount = 0;
            throw std::runtime_error(format(
                "event queue stalled: %llu events at tick %llu "
                "without progress (last: '%s')",
                (unsigned long long)stallThreshold,
                (unsigned long long)e.when, e.ev->name().c_str()));
        }
    }
    e.ev->process();
    ++numProcessed;
    return true;
}

void
EventQueue::runUntil(Tick until)
{
    while (!heap.empty() && heap.front().when <= until)
        runOne();
    if (curTick < until)
        curTick = until;
}

} // namespace na::sim
