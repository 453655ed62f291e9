/**
 * @file
 * Integration tests for the iSCSI and web-server workloads and the
 * RPC-capable remote peer roles they rely on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "src/net/driver.hh"
#include "src/net/nic.hh"
#include "src/net/peer.hh"
#include "src/net/skb.hh"
#include "src/net/socket.hh"
#include "src/net/wire.hh"
#include "src/os/kernel.hh"
#include "src/sim/logging.hh"
#include "src/workload/iscsi.hh"
#include "src/workload/webserver.hh"

using namespace na;

namespace {

/** Minimal single-connection rig with a configurable peer role. */
struct Rig
{
    Rig(net::PeerRole role, const net::PeerRpcConfig &rpc,
        const net::TcpConfig &tcp = net::TcpConfig{})
        : root(nullptr, ""), kernel(&root, eq, cpu::PlatformConfig{}),
          pool(&root, kernel, 1024), driver(&root, kernel, pool),
          wire(&root, "wire", eq),
          nic(&root, "nic", 0, kernel, pool, wire),
          socket(&root, "sock", kernel, driver, pool, net::connFlowKey(0),
                 tcp)
    {
        driver.attachNic(nic);
        driver.bindSocket(socket, nic);
        peer = std::make_unique<net::RemotePeer>(
            &root, "peer", eq, wire, net::connFlowKey(0), role, tcp,
            rpc);
        peer->start();
    }

    /** Request/response traffic sets TCP_NODELAY, like real iSCSI. */
    static net::TcpConfig
    noDelay()
    {
        net::TcpConfig t;
        t.nagle = false;
        return t;
    }

    stats::Group root;
    sim::EventQueue eq;
    os::Kernel kernel;
    net::SkbPool pool;
    net::Driver driver;
    net::Wire wire;
    net::Nic nic;
    net::Socket socket;
    std::unique_ptr<net::RemotePeer> peer;
};

TEST(IscsiWorkload, ReadOpsCompleteAndCount)
{
    workload::IscsiConfig icfg;
    icfg.op = workload::IscsiOp::Read;
    icfg.blockBytes = 16384;
    net::PeerRpcConfig rpc;
    rpc.reqBytes = workload::iscsiRequestBytes(icfg);
    rpc.respBytes = workload::iscsiResponseBytes(icfg);
    ASSERT_EQ(rpc.reqBytes, 48u);
    ASSERT_EQ(rpc.respBytes, 16384u + 48u);

    Rig rig(net::PeerRole::Responder, rpc, Rig::noDelay());
    workload::IscsiApp app(&rig.root, "init", rig.kernel, rig.socket,
                           icfg);
    rig.kernel.createTask("init", &app);
    rig.kernel.start();
    rig.eq.runUntil(200'000'000);

    EXPECT_GT(app.opsCompleted(), 10u);
    // Conservation: bytes in == ops * response size (no torn ops).
    EXPECT_NEAR(app.bytesIn.value(),
                static_cast<double>(app.opsCompleted()) * rpc.respBytes,
                rpc.respBytes);
    // The target may have answered one request whose response is
    // still in flight back to the initiator.
    EXPECT_NEAR(static_cast<double>(rig.peer->requestsCompleted()),
                static_cast<double>(app.opsCompleted()), 1.0);
}

TEST(IscsiWorkload, WriteOpsMoveDataOut)
{
    workload::IscsiConfig icfg;
    icfg.op = workload::IscsiOp::Write;
    icfg.blockBytes = 8192;
    net::PeerRpcConfig rpc;
    rpc.reqBytes = workload::iscsiRequestBytes(icfg);
    rpc.respBytes = workload::iscsiResponseBytes(icfg);
    ASSERT_EQ(rpc.reqBytes, 8192u + 48u);

    Rig rig(net::PeerRole::Responder, rpc, Rig::noDelay());
    workload::IscsiApp app(&rig.root, "init", rig.kernel, rig.socket,
                           icfg);
    rig.kernel.createTask("init", &app);
    rig.kernel.start();
    rig.eq.runUntil(200'000'000);

    EXPECT_GT(app.opsCompleted(), 10u);
    EXPECT_GT(app.bytesOut.value(), app.bytesIn.value());
}

TEST(WebWorkload, ServesPipelinedRequests)
{
    workload::WebServerConfig wcfg;
    wcfg.requestBytes = 512;
    wcfg.responseBytes = 8192;
    net::PeerRpcConfig rpc;
    rpc.reqBytes = wcfg.requestBytes;
    rpc.respBytes = wcfg.responseBytes;
    rpc.pipelineDepth = 3;

    Rig rig(net::PeerRole::Requester, rpc);
    workload::WebServerApp app(&rig.root, "worker", rig.kernel,
                               rig.socket, wcfg);
    rig.kernel.createTask("httpd", &app);
    rig.kernel.start();
    rig.eq.runUntil(200'000'000);

    EXPECT_GT(app.requestsServed(), 50u);
    EXPECT_NEAR(app.bytesServed.value(),
                static_cast<double>(app.requestsServed()) *
                    wcfg.responseBytes,
                wcfg.responseBytes);
    // The client counted the same completed exchanges (within the
    // pipeline depth of slack).
    EXPECT_NEAR(static_cast<double>(rig.peer->requestsCompleted()),
                static_cast<double>(app.requestsServed()),
                static_cast<double>(rpc.pipelineDepth) + 1);
}

TEST(WebWorkload, RequestsRequireFullBytes)
{
    // A requester that sends short requests starves the server: no
    // responses until a whole request accumulates.
    workload::WebServerConfig wcfg;
    wcfg.requestBytes = 1024;
    wcfg.responseBytes = 2048;
    net::PeerRpcConfig rpc;
    rpc.reqBytes = 512; // client sends half-requests
    rpc.respBytes = wcfg.responseBytes;
    rpc.pipelineDepth = 1;

    Rig rig(net::PeerRole::Requester, rpc);
    workload::WebServerApp app(&rig.root, "worker", rig.kernel,
                               rig.socket, wcfg);
    rig.kernel.createTask("httpd", &app);
    rig.kernel.start();
    rig.eq.runUntil(100'000'000);
    // One half-request in flight, never completed: nothing served.
    EXPECT_EQ(app.requestsServed(), 0u);
}

TEST(PeerRoles, ResponderAnswersExactly)
{
    net::PeerRpcConfig rpc;
    rpc.reqBytes = 100;
    rpc.respBytes = 700;
    Rig rig(net::PeerRole::Responder, rpc, Rig::noDelay());

    // Drive the socket manually from a trivial task.
    struct Pump : os::TaskLogic
    {
        net::Socket &s;
        sim::Addr buf;
        int sent = 0;
        std::uint64_t got = 0;
        explicit Pump(net::Socket &s, sim::Addr buf) : s(s), buf(buf) {}
        os::StepStatus
        step(os::ExecContext &ctx) override
        {
            if (!s.established()) {
                s.connect(ctx);
                return s.established() ? os::StepStatus::Continue
                                       : os::StepStatus::Blocked;
            }
            if (sent < 3) {
                if (s.send(ctx, buf, 100) == 100)
                    ++sent;
                return ctx.task->state == os::TaskState::Blocked
                           ? os::StepStatus::Blocked
                           : os::StepStatus::Continue;
            }
            const int r = s.recv(ctx, buf, 4096);
            if (r == 0)
                return os::StepStatus::Blocked;
            got += static_cast<std::uint64_t>(r);
            return os::StepStatus::Continue;
        }
    } pump(rig.socket,
           rig.kernel.addressSpace().alloc(mem::Region::UserData, 4096));

    rig.kernel.createTask("pump", &pump);
    rig.kernel.start();
    rig.eq.runUntil(200'000'000);
    EXPECT_EQ(pump.got, 3u * 700u);
    EXPECT_EQ(rig.peer->requestsCompleted(), 3u);
}

} // namespace
