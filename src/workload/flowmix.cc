#include "src/workload/flowmix.hh"

#include <algorithm>

#include "src/net/driver.hh"
#include "src/os/exec_context.hh"
#include "src/os/kernel.hh"

namespace na::workload {

FlowMixApp::FlowMixApp(stats::Group *parent, const std::string &name,
                       os::Kernel &kernel_ref, net::Driver &driver_ref,
                       net::Socket &listener_ref)
    : stats::Group(parent, name),
      accepted(this, "accepted", "children popped via accept()"),
      retired(this, "retired", "children fully closed and recycled"),
      appBytesRead(this, "bytes_read", "payload bytes read from children"),
      syscalls(this, "syscalls", "accept/read syscalls issued"),
      kernel(kernel_ref), driver(driver_ref), listener(listener_ref),
      readBuf(kernel_ref.addressSpace().alloc(mem::Region::UserData,
                                              FlowMixConfig::readChunk))
{
    listener.setNonBlocking(true);
    listener.setWakeHook(
        [this](os::ExecContext &ctx, net::Socket &socket) {
            onSocketWake(ctx, socket);
        });
}

void
FlowMixApp::onSocketWake(os::ExecContext &ctx, net::Socket &socket)
{
    // Children adopt the listener's hook, so this fires both for
    // "accept queue gained a child" (socket == listener) and for
    // "child became actionable" (data, ACK opening send space, FIN).
    if (&socket != &listener)
        markReady(&socket);
    kernel.wakeUpAll(ctx, readyWq);
}

void
FlowMixApp::markReady(net::Socket *socket)
{
    if (readySet.insert(socket).second)
        ready.push_back(socket);
}

os::StepStatus
FlowMixApp::step(os::ExecContext &ctx)
{
    const bool acceptedSome = drainAcceptQueue(ctx);

    if (!ready.empty()) {
        net::Socket *child = ready.front();
        ready.pop_front();
        readySet.erase(child);
        // The child may have been retired after being queued.
        if (children.find(child) != children.end())
            serviceChild(ctx, *child);
        return os::StepStatus::Continue;
    }
    if (acceptedSome)
        return os::StepStatus::Continue;

    // Nothing actionable: park until a wake hook fires.
    readyWq.sleepOn(ctx.task);
    return os::StepStatus::Blocked;
}

bool
FlowMixApp::drainAcceptQueue(os::ExecContext &ctx)
{
    bool any = false;
    while (listener.acceptQueueDepth() > 0) {
        ctx.charge(prof::FuncId::TtcpLoop, 50, {});
        ++syscalls;
        net::Socket *child = listener.accept(ctx);
        if (!child)
            break;
        any = true;
        ++accepted;
        children.emplace(child, ChildState{});
        // Handshake data (or even a FIN) may already be queued.
        markReady(child);
    }
    return any;
}

void
FlowMixApp::serviceChild(os::ExecContext &ctx, net::Socket &child)
{
    ChildState &st = children[&child];
    ctx.charge(prof::FuncId::TtcpLoop, 50, {});

    ctx.charge(prof::FuncId::SysRead, 350, {});
    ++syscalls;
    const int r = child.recv(ctx, readBuf, FlowMixConfig::readChunk);
    if (r > 0) {
        appBytesRead += r;
        // More data may remain buffered; service again next step.
        markReady(&child);
        return;
    }
    if (r < 0 && !st.closedByUs) {
        // EOF: the client finished its flow; close our half. The final
        // ACK completes the passive close and re-wakes the child.
        child.close(ctx);
        st.closedByUs = true;
    }
    if (child.fullyClosed())
        retireChild(ctx, child);
}

void
FlowMixApp::retireChild(os::ExecContext &ctx, net::Socket &child)
{
    children.erase(&child);
    if (readySet.erase(&child)) {
        const auto it = std::find(ready.begin(), ready.end(), &child);
        if (it != ready.end())
            ready.erase(it);
    }
    ++retired;
    driver.releaseSocket(ctx, child);
}

} // namespace na::workload
