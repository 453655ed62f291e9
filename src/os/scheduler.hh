/**
 * @file
 * The SMP scheduler: per-CPU run queues, wakeup placement, and the
 * periodic load balancer.
 *
 * Policies model the Linux 2.4/2.6-era behaviour the paper leans on:
 *  - wakeups prefer the task's previous CPU (cache affinity) but will
 *    pull the task to the waking CPU when that CPU's queue is strictly
 *    shorter (wake-affine) — the mechanism by which interrupt affinity
 *    "indirectly leads to process affinity";
 *  - cross-CPU wakeups send a reschedule IPI to the target;
 *  - the balancer runs off the timer tick and on idle, pulling from the
 *    busiest queue when the imbalance exceeds a threshold, skipping
 *    cache-hot tasks when possible;
 *  - affinity masks are always honored.
 */

#ifndef NETAFFINITY_OS_SCHEDULER_HH
#define NETAFFINITY_OS_SCHEDULER_HH

#include <deque>
#include <memory>
#include <vector>

#include "src/os/spinlock.hh"
#include "src/os/task.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::os {

class ExecContext;
class Kernel;
class Processor;

/** One CPU's queue of runnable (not running) tasks. */
class RunQueue
{
  public:
    RunQueue(stats::Group *parent, const std::string &name,
             sim::Addr struct_addr, sim::Addr lock_addr);

    void push(Task *task) { queue.push_back(task); }

    Task *pop();

    /** Remove a specific task. @return true if it was queued. */
    bool remove(Task *task);

    /**
     * @return a migration candidate runnable on @p dest: prefers tasks
     *         that are not cache-hot (did not run within
     *         @p cache_hot_cycles of @p now); nullptr if none allowed.
     */
    Task *stealCandidate(sim::CpuId dest, sim::Tick now,
                         sim::Tick cache_hot_cycles) const;

    std::size_t size() const { return queue.size(); }
    bool empty() const { return queue.empty(); }

    sim::Addr structAddr() const { return addr; }
    SpinLock lock;

  private:
    std::deque<Task *> queue;
    sim::Addr addr;
};

/** The SMP scheduler. */
class Scheduler : public stats::Group
{
  public:
    Scheduler(stats::Group *parent, Kernel &kernel);

    /** Create per-CPU state once processors exist. */
    void init(int num_cpus);

    /** Place a brand-new runnable task on an allowed CPU. */
    void enqueueNew(Task *task);

    /** Put a previously-running task back on @p cpu's queue. */
    void requeue(Task *task, sim::CpuId cpu);

    /** @return next task for @p cpu (popped), or nullptr. */
    Task *pickNext(sim::CpuId cpu);

    /**
     * Wake a blocked task from @p ctx (the waker's context). Chooses
     * the target CPU, enqueues, kicks, and sends an IPI when the target
     * is a different CPU. Charges try_to_wake_up work to the waker.
     */
    void wakeUp(ExecContext &ctx, Task *task);

    /**
     * Pull work toward @p ctx's CPU if the busiest queue exceeds the
     * imbalance threshold. Charges load_balance work.
     */
    void balance(ExecContext &ctx);

    /** @return runnable count (queued + running) for @p cpu. */
    int load(sim::CpuId cpu) const;

    RunQueue &runQueue(sim::CpuId cpu) { return *queues[cpu]; }

    /** @name Statistics @{ */
    stats::Scalar wakeups;
    stats::Scalar wakeupsCrossCpu;  ///< wakeups that sent an IPI
    stats::Scalar wakeAffinePulls;  ///< wakeups migrated to the waker
    stats::Scalar migrations;       ///< balancer migrations
    /** @} */

  private:
    Kernel &kernel;
    std::vector<std::unique_ptr<RunQueue>> queues;
    int rrNext = 0; ///< round-robin cursor for new tasks

    sim::CpuId chooseWakeCpu(const ExecContext &ctx,
                             const Task *task) const;
};

} // namespace na::os

#endif // NETAFFINITY_OS_SCHEDULER_HH
