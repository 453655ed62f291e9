#include "src/os/timer_list.hh"

#include "src/os/exec_context.hh"
#include "src/os/processor.hh"

namespace na::os {

TimerList::TimerList(stats::Group *parent)
    : stats::Group(parent, "timers"),
      armedTotal(this, "armed", "timers armed"),
      firedTotal(this, "fired", "timers fired"),
      cancelledTotal(this, "cancelled", "timers cancelled before firing")
{
}

TimerId
TimerList::arm(sim::CpuId cpu, sim::Tick expiry, Callback cb)
{
    const TimerId id{expiry, nextSeq++};
    timers.emplace(id, Entry{cpu, std::move(cb)});
    ++armedTotal;
    return id;
}

bool
TimerList::cancel(TimerId id)
{
    if (timers.erase(id) == 0)
        return false;
    ++cancelledTotal;
    return true;
}

bool
TimerList::armed(TimerId id) const
{
    return timers.count(id) != 0;
}

int
TimerList::runExpired(ExecContext &ctx)
{
    const sim::CpuId cpu = ctx.cpuId();
    const sim::Tick now = ctx.proc.dispatchStart();
    // Timers that callbacks arm during this pass wait for the next one,
    // even when already due.
    const std::uint64_t passEnd = nextSeq;

    int fired = 0;
    auto it = timers.begin();
    while (it != timers.end() && it->first.expiry <= now) {
        if (it->second.cpu != cpu || it->first.seq >= passEnd) {
            ++it;
            continue;
        }
        const TimerId id = it->first;
        Callback cb = std::move(it->second.cb);
        timers.erase(it);
        ++firedTotal;
        ++fired;
        cb(ctx);
        // The callback may have armed or cancelled any timer; resume
        // after the one that just fired.
        it = timers.upper_bound(id);
    }
    return fired;
}

} // namespace na::os
