/**
 * @file
 * Runtime half of the fault model: seeded random decisions per packet
 * and per interrupt, with counters for every fault that fired.
 *
 * One FaultInjector serves one connection's wire + NIC pair (they are
 * installed together by core::System). Each direction draws from its own
 * RNG stream and counts into its own stats group, so the faults one
 * direction sees do not depend on how much traffic flows the other way.
 * Fault-run results are defined by these streams: merging them would
 * change every fault result the repo has recorded. The NIC-side faults
 * (lost interrupts, RX stalls, checksum catches) share the toPeer
 * direction's stream.
 *
 * The injector is only constructed when the plan is enabled; wires and
 * NICs hold a nullable pointer, so faults-off runs take one untaken
 * branch and perform no RNG draws (the golden bit-identity harness
 * depends on this).
 */

#ifndef NETAFFINITY_NET_FAULT_INJECTOR_HH
#define NETAFFINITY_NET_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>

#include "src/sim/fault_plan.hh"
#include "src/sim/random.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::net {

/** Executes a sim::FaultPlan for one wire + NIC pair. */
class FaultInjector : public stats::Group
{
  public:
    /** What should happen to one packet entering the wire. */
    struct WireDecision
    {
        bool drop = false;          ///< never delivered (counted)
        bool corrupt = false;       ///< delivered flagged; csum drops it
        bool duplicate = false;     ///< delivered twice
        sim::Tick extraDelayTicks = 0; ///< reordering delay
    };

    /** Wire-fault counters for one direction. */
    struct DirStats : public stats::Group
    {
        DirStats(stats::Group *parent, const std::string &name);

        stats::Scalar dropsLoss;  ///< Bernoulli wire drops
        stats::Scalar dropsBurst; ///< Gilbert-Elliott (Bad-state) drops
        stats::Scalar dropsFlap;  ///< drops inside link-down windows
        stats::Scalar corrupts;   ///< packets flagged corrupt
        stats::Scalar dups;       ///< packets duplicated
        stats::Scalar reorders;   ///< packets delayed for reordering
    };

    FaultInjector(stats::Group *parent, const std::string &name,
                  const sim::FaultPlan &plan, std::uint64_t seed);

    const sim::FaultPlan &plan() const { return fp; }

    /**
     * Decide the fate of one packet. Draws from the direction's RNG in
     * a fixed order (flap, burst chain, loss, corrupt, dup, reorder),
     * counting every fault that fires into the direction's group.
     * @param from_sut true for SUT -> peer (the plan's toPeer side)
     */
    WireDecision onWirePacket(bool from_sut, sim::Tick now);

    /** @return true if the link-flap window covers @p now (no draw). */
    bool linkDown(sim::Tick now) const;

    /**
     * @return true if the RX ring is inside a stall window; counts the
     *         dropped frame when it is.
     */
    bool rxStallActive(sim::Tick now);

    /**
     * @return true if this raised interrupt is lost/coalesced (drawn
     *         with irqLossProb; counted).
     */
    bool irqLost();

    /** RX-side checksum catch of an injected corruption (counted). */
    void noteCsumDrop() { ++rxCsumDrops; }

    DirStats toPeerStats; ///< SUT -> peer faults
    DirStats toSutStats;  ///< peer -> SUT faults

    /** @name Direction-summed totals for reporting @{ */
    double dropsLoss() const
    {
        return toPeerStats.dropsLoss.value() +
               toSutStats.dropsLoss.value();
    }
    double dropsBurst() const
    {
        return toPeerStats.dropsBurst.value() +
               toSutStats.dropsBurst.value();
    }
    double dropsFlap() const
    {
        return toPeerStats.dropsFlap.value() +
               toSutStats.dropsFlap.value();
    }
    double corrupts() const
    {
        return toPeerStats.corrupts.value() +
               toSutStats.corrupts.value();
    }
    double dups() const
    {
        return toPeerStats.dups.value() + toSutStats.dups.value();
    }
    double reorders() const
    {
        return toPeerStats.reorders.value() +
               toSutStats.reorders.value();
    }
    /** @} */

    stats::Scalar rxCsumDrops;  ///< corrupt frames caught by checksum
    stats::Scalar rxStallDrops; ///< frames dropped in stall windows
    stats::Scalar irqsLost;     ///< MSIs lost/coalesced

  private:
    sim::FaultPlan fp;
    /** Per-direction streams: [0] toPeer (also the NIC's
     *  interrupt-loss draws), [1] toSut. */
    sim::Random rng[2];
    /** Gilbert-Elliott state per direction: [0] toPeer, [1] toSut. */
    bool geBad[2] = {false, false};
};

} // namespace na::net

#endif // NETAFFINITY_NET_FAULT_INJECTOR_HH
