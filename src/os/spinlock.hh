/**
 * @file
 * Timed-contention spinlock model (paper Table 2).
 *
 * The simulator executes each CPU's work in atomic dispatches, so true
 * cycle-level lock racing is approximated with *known release times*: a
 * lock remembers the absolute tick its last holder released it. An
 * acquirer whose estimated time falls before that spins for the
 * difference, charging the Locks bin with the PAUSE-loop instruction and
 * branch profile from the paper's spinlock disassembly:
 *
 *   uncontended:  lock decb + fall-through  -> ~12 instr, 2 branches
 *   contended:    cmpb / repz nop / jle spin loop -> 3 instr + 2 branches
 *                 per iteration (one PAUSE delay each), one guaranteed
 *                 mispredict on the exit branch
 *
 * which reproduces the paper's observation that full affinity shrinks
 * the *number* of lock branches so much that the mispredict *ratio*
 * rises even as mispredict counts fall.
 */

#ifndef NETAFFINITY_OS_SPINLOCK_HH
#define NETAFFINITY_OS_SPINLOCK_HH

#include <cstdint>
#include <string>

#include "src/prof/func_registry.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::os {

class ExecContext;

/** One kernel spinlock with a simulated cache-line address. */
class SpinLock : public stats::Group
{
  public:
    /** PAUSE-loop delay per spin iteration (P4 ~20 cycles). */
    static constexpr unsigned pauseCycles = 20;

    /**
     * @param func the Locks-bin function acquisitions are charged to
     * @param line_addr simulated address of the lock word
     */
    SpinLock(stats::Group *parent, const std::string &name,
             prof::FuncId func, sim::Addr line_addr);

    /** Acquire at estimated time @p now_est, charging via @p ctx. */
    void acquire(ExecContext &ctx, sim::Tick now_est);

    /** Release at estimated time @p now_est. */
    void release(ExecContext &ctx, sim::Tick now_est);

    sim::CpuId lastOwner() const { return ownerCpu; }
    sim::Addr lineAddr() const { return line; }

    stats::Scalar acquisitions;
    stats::Scalar contentions;
    stats::Scalar spinCycles;

  private:
    prof::FuncId func;
    sim::Addr line;
    sim::Tick freeAt = 0;        ///< absolute tick of last release
    sim::Tick acquiredAt = 0;
    sim::CpuId ownerCpu = sim::invalidCpu;
    bool held = false;
};

} // namespace na::os

#endif // NETAFFINITY_OS_SPINLOCK_HH
