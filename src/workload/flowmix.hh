/**
 * @file
 * The many-flow server process: an event-driven accept/read/close
 * loop over one listener socket (think a single-threaded epoll server).
 *
 * Where TtcpApp owns one pre-established connection, FlowMixApp owns a
 * *listener* and services whatever population of child sockets the
 * driver accepts into it: it drains the accept queue (charged
 * sys_accept work), reads each readable child (charged sys_read +
 * copy_to_user work), and retires children once both directions
 * close — returning the socket to the driver's pool and its
 * ConnectionMap entry to the free list.
 *
 * Readiness is event-driven via Socket wake hooks, so the task never
 * scans the population: cost per step is O(sockets serviced).
 */

#ifndef NETAFFINITY_WORKLOAD_FLOWMIX_HH
#define NETAFFINITY_WORKLOAD_FLOWMIX_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/net/socket.hh"
#include "src/os/task.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"
#include "src/workload/spec.hh"

namespace na::os {
class ExecContext;
class Kernel;
} // namespace na::os

namespace na::net {
class Driver;
} // namespace na::net

namespace na::workload {

/** One event-driven flow-mix server process. */
class FlowMixApp : public os::TaskLogic, public stats::Group
{
  public:
    /**
     * @param listener a socket already configured by
     *                 Driver::listenSocket; the app makes it
     *                 non-blocking and installs its wake hook.
     */
    FlowMixApp(stats::Group *parent, const std::string &name,
               os::Kernel &kernel, net::Driver &driver,
               net::Socket &listener);

    os::StepStatus step(os::ExecContext &ctx) override;

    std::uint64_t flowsAccepted() const
    {
        return static_cast<std::uint64_t>(accepted.value());
    }
    std::uint64_t flowsRetired() const
    {
        return static_cast<std::uint64_t>(retired.value());
    }
    std::uint64_t bytesReceived() const
    {
        return static_cast<std::uint64_t>(appBytesRead.value());
    }

    stats::Scalar accepted;     ///< children popped via accept()
    stats::Scalar retired;      ///< children fully closed + recycled
    stats::Scalar appBytesRead; ///< payload bytes read from children
    stats::Scalar syscalls;     ///< accept/read syscalls issued

  private:
    /** Per-child application state. */
    struct ChildState
    {
        bool closedByUs = false;
    };

    os::Kernel &kernel;
    net::Driver &driver;
    net::Socket &listener;
    sim::Addr readBuf;

    os::WaitQueue readyWq; ///< the app task parks here when idle
    std::deque<net::Socket *> ready;
    std::unordered_set<net::Socket *> readySet;
    std::unordered_map<net::Socket *, ChildState> children;

    /** Wake hook target (softirq context). */
    void onSocketWake(os::ExecContext &ctx, net::Socket &socket);

    /** Queue @p socket for service if not already queued. */
    void markReady(net::Socket *socket);

    /** Pop + service children from the listener's accept queue. */
    bool drainAcceptQueue(os::ExecContext &ctx);

    /** One read round on a ready child. */
    void serviceChild(os::ExecContext &ctx, net::Socket &child);

    /** Recycle a fully-closed child. */
    void retireChild(os::ExecContext &ctx, net::Socket &child);
};

} // namespace na::workload

#endif // NETAFFINITY_WORKLOAD_FLOWMIX_HH
