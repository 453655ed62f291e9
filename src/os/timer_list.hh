/**
 * @file
 * Kernel timers with tick-granular expiry (Linux 2.4 timer wheel
 * semantics: callbacks run from the timer softirq of the CPU that armed
 * them, at the first tick at or after the requested expiry).
 */

#ifndef NETAFFINITY_OS_TIMER_LIST_HH
#define NETAFFINITY_OS_TIMER_LIST_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <map>

#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::os {

class ExecContext;

/**
 * Handle for cancelling an armed timer, and its key in the timer list:
 * timers are ordered by expiry, then by arm order (seq).
 */
struct TimerId
{
    sim::Tick expiry = 0;
    std::uint64_t seq = 0; ///< arm order; 0 only in invalidTimer

    friend auto operator<=>(const TimerId &, const TimerId &) = default;
};

constexpr TimerId invalidTimer{};

/** The kernel's timer list. */
class TimerList : public stats::Group
{
  public:
    using Callback = std::function<void(ExecContext &)>;

    explicit TimerList(stats::Group *parent);

    /**
     * Arm a timer on @p cpu expiring at absolute tick @p expiry.
     * @return id usable with cancel().
     */
    TimerId arm(sim::CpuId cpu, sim::Tick expiry, Callback cb);

    /** Cancel an armed timer. @return true if it had not fired. */
    bool cancel(TimerId id);

    /** @return true if @p id is still armed. */
    bool armed(TimerId id) const;

    /**
     * Run callbacks with expiry <= now for @p ctx's CPU, charging
     * run_timer_list work per expired timer.
     * @return number of callbacks run.
     */
    int runExpired(ExecContext &ctx);

    std::size_t pendingCount() const { return timers.size(); }

    stats::Scalar armedTotal;
    stats::Scalar firedTotal;
    stats::Scalar cancelledTotal;

  private:
    struct Entry
    {
        sim::CpuId cpu;
        Callback cb;
    };

    std::uint64_t nextSeq = 1;
    std::map<TimerId, Entry> timers;
};

} // namespace na::os

#endif // NETAFFINITY_OS_TIMER_LIST_HH
