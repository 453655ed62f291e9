#include "src/os/kernel.hh"

#include "src/sim/logging.hh"

namespace na::os {

Kernel::Kernel(stats::Group *parent, sim::EventQueue &eq_ref,
               const cpu::PlatformConfig &config)
    : stats::Group(parent, "kernel"),
      eq(eq_ref),
      cfg(config),
      acct(config.numCpus),
      rng(config.seed),
      sched(this, *this),
      irqCtrl(this),
      timerList(this)
{
    if (cfg.numCpus < 1 || cfg.numCpus > mem::maxSmpCpus)
        sim::fatal("numCpus %d out of range [1, %d]", cfg.numCpus,
                   mem::maxSmpCpus);

    xtime = addrAlloc.alloc(mem::Region::KernelData, 64);

    for (int c = 0; c < cfg.numCpus; ++c) {
        cores.push_back(std::make_unique<cpu::Core>(
            this, sim::format("cpu%d", c), c, cfg, snoop, acct));
    }
    std::vector<cpu::Core *> peers;
    for (auto &core : cores)
        peers.push_back(core.get());
    for (auto &core : cores)
        core->setPeers(peers);

    std::vector<Processor *> proc_ptrs;
    for (int c = 0; c < cfg.numCpus; ++c) {
        procs.push_back(std::make_unique<Processor>(*this, c, *cores[c]));
        proc_ptrs.push_back(procs.back().get());
    }
    irqCtrl.setProcessors(proc_ptrs, &eq);
    sched.init(cfg.numCpus);
}

Kernel::~Kernel()
{
    // Processor events may still sit on the queue; deschedule them so
    // Event destructors do not panic.
    for (auto &proc : procs) {
        eq.deschedule(&proc->advanceEvent);
        eq.deschedule(&proc->tickEvent);
    }
}

void
Kernel::start()
{
    // Stagger per-CPU ticks half a period apart like real APIC timers
    // end up after boot, so ticks do not synchronize artificially.
    for (int c = 0; c < numCpus(); ++c) {
        const sim::Tick phase =
            cfg.timerTickCycles * static_cast<sim::Tick>(c) /
            static_cast<sim::Tick>(numCpus());
        eq.schedule(&procs[static_cast<std::size_t>(c)]->tickEvent,
                    eq.now() + cfg.timerTickCycles + phase);
    }
}

Task *
Kernel::createTask(const std::string &name, TaskLogic *logic,
                   std::uint32_t affinity_mask)
{
    const std::uint32_t cpu_mask =
        (numCpus() >= 32) ? 0xffffffffu
                          : ((1u << numCpus()) - 1u);
    const std::uint32_t effective = affinity_mask & cpu_mask;
    if (effective == 0)
        sim::fatal("task %s: affinity mask 0x%x selects no CPU",
                   name.c_str(), affinity_mask);

    const sim::Addr task_addr =
        addrAlloc.alloc(mem::Region::KernelData, 1024);
    auto task = std::make_unique<Task>(nextTaskId++, name, logic,
                                       task_addr);
    task->affinityMask = effective;
    Task *raw = task.get();
    taskList.push_back(std::move(task));
    sched.enqueueNew(raw);
    return raw;
}

void
Kernel::schedSetaffinity(Task *task, std::uint32_t mask)
{
    const std::uint32_t cpu_mask =
        (numCpus() >= 32) ? 0xffffffffu
                          : ((1u << numCpus()) - 1u);
    const std::uint32_t effective = mask & cpu_mask;
    if (effective == 0)
        sim::fatal("sched_setaffinity: mask 0x%x selects no CPU", mask);
    task->affinityMask = effective;

    // If the task is running or queued on a now-forbidden CPU, move it.
    for (int c = 0; c < numCpus(); ++c) {
        if (task->allowedOn(c))
            continue;
        Processor &proc = *procs[static_cast<std::size_t>(c)];
        if (proc.currentTask() == task)
            proc.requeueCurrent();
        if (sched.runQueue(c).remove(task)) {
            // Re-place on the first allowed CPU.
            for (int dest = 0; dest < numCpus(); ++dest) {
                if (task->allowedOn(dest)) {
                    sched.requeue(task, dest);
                    procs[static_cast<std::size_t>(dest)]->kick();
                    break;
                }
            }
        }
    }
}

void
Kernel::wakeUpOne(ExecContext &ctx, WaitQueue &wq)
{
    if (Task *t = wq.popOne())
        sched.wakeUp(ctx, t);
}

void
Kernel::wakeUpAll(ExecContext &ctx, WaitQueue &wq)
{
    while (Task *t = wq.popOne())
        sched.wakeUp(ctx, t);
}

void
Kernel::finalizeIdle(sim::Tick end)
{
    for (auto &proc : procs)
        proc->finalizeIdle(end);
}

void
Kernel::resetMeasurement()
{
    acct.reset();
    resetStats();
}

} // namespace na::os
