/**
 * @file
 * iSCSI-style storage traffic under affinity (the paper's future-work
 * experiment: "promising performance gains when running a file IO
 * benchmark over iSCSI/TCP").
 *
 * Demonstrates assembling a custom system from the library's parts:
 * kernel, skb pool, driver, NICs, wires, request/response peers, and
 * the IscsiApp initiators — then pinning processes and interrupts the
 * way the paper's full-affinity mode does.
 *
 * Run: ./build/examples/iscsi_storage
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/affinity.hh"
#include "src/net/driver.hh"
#include "src/net/nic.hh"
#include "src/net/peer.hh"
#include "src/net/skb.hh"
#include "src/net/socket.hh"
#include "src/net/wire.hh"
#include "src/os/kernel.hh"
#include "src/sim/logging.hh"
#include "src/workload/iscsi.hh"

using namespace na;

namespace {

/** A hand-assembled storage testbed: 4 LUN connections, 2 CPUs. */
struct StorageRig
{
    static constexpr int kConns = 4;

    explicit StorageRig(bool full_affinity)
        : root(nullptr, ""), kernel(&root, eq, platform()),
          pool(&root, kernel, 4096), driver(&root, kernel, pool)
    {
        for (int i = 0; i < kConns; ++i) {
            // Alternate READ- and WRITE-heavy LUNs, 64 KiB blocks.
            workload::IscsiConfig icfg;
            icfg.op = (i % 2 == 0) ? workload::IscsiOp::Read
                                   : workload::IscsiOp::Write;
            icfg.blockBytes = 64 * 1024;

            wires.push_back(std::make_unique<net::Wire>(
                &root, sim::format("wire%d", i), eq));
            nics.push_back(std::make_unique<net::Nic>(
                &root, sim::format("nic%d", i), i, kernel, pool,
                *wires[i]));
            driver.attachNic(*nics[i]);
            net::TcpConfig sock_tcp;
            sock_tcp.nagle = false;
            sockets.push_back(std::make_unique<net::Socket>(
                &root, sim::format("sock%d", i), kernel, driver, pool,
                net::connFlowKey(i), sock_tcp));
            driver.bindSocket(*sockets[i], *nics[i]);

            // The storage target answers each request with the op's
            // response geometry.
            net::PeerRpcConfig rpc;
            rpc.reqBytes = workload::iscsiRequestBytes(icfg);
            rpc.respBytes = workload::iscsiResponseBytes(icfg);
            // iSCSI initiators set TCP_NODELAY.
            net::TcpConfig tcp;
            tcp.nagle = false;
            peers.push_back(std::make_unique<net::RemotePeer>(
                &root, sim::format("target%d", i), eq, *wires[i],
                net::connFlowKey(i), net::PeerRole::Responder, tcp,
                rpc));
            peers[i]->start();

            apps.push_back(std::make_unique<workload::IscsiApp>(
                &root, sim::format("init%d", i), kernel, *sockets[i],
                icfg));

            const sim::CpuId cpu = i * 2 / kConns;
            const std::uint32_t mask =
                full_affinity ? (1u << cpu) : 0xffffffffu;
            kernel.createTask(sim::format("iscsi%d", i),
                              apps.back().get(), mask);
            if (full_affinity) {
                kernel.irqController().setSmpAffinity(
                    nics[i]->irqVector(), 1u << cpu);
            }
        }
        kernel.start();
    }

    static cpu::PlatformConfig
    platform()
    {
        return cpu::PlatformConfig{};
    }

    stats::Group root;
    sim::EventQueue eq;
    os::Kernel kernel;
    net::SkbPool pool;
    net::Driver driver;
    std::vector<std::unique_ptr<net::Wire>> wires;
    std::vector<std::unique_ptr<net::Nic>> nics;
    std::vector<std::unique_ptr<net::Socket>> sockets;
    std::vector<std::unique_ptr<net::RemotePeer>> peers;
    std::vector<std::unique_ptr<workload::IscsiApp>> apps;
};

void
run(bool full_affinity)
{
    StorageRig rig(full_affinity);
    rig.eq.runUntil(40'000'000); // warm up / establish
    const std::uint64_t ops0 = [&rig] {
        std::uint64_t n = 0;
        for (auto &a : rig.apps)
            n += a->opsCompleted();
        return n;
    }();
    rig.kernel.finalizeIdle(rig.eq.now());
    double busy0 = 0;
    for (int c = 0; c < 2; ++c)
        busy0 += rig.kernel.core(c).counters.busyCycles.value();
    const sim::Tick t0 = rig.eq.now();
    rig.eq.runUntil(t0 + 200'000'000); // 100 ms measured

    std::uint64_t ops = 0;
    std::uint64_t data = 0;
    for (auto &a : rig.apps) {
        ops += a->opsCompleted();
        data += a->dataBytesMoved();
    }
    ops -= ops0;
    const double secs =
        sim::ticksToSeconds(rig.eq.now() - t0, 2.0e9);
    rig.kernel.finalizeIdle(rig.eq.now());
    double busy = -busy0;
    for (int c = 0; c < 2; ++c)
        busy += rig.kernel.core(c).counters.busyCycles.value();

    // Queue-depth-1 storage is latency-bound, so the affinity win
    // shows up as CPU efficiency, not IOPS (the paper's GHz/Gbps view).
    std::printf("%-12s  %7.0f IOPS  %7.1f MB/s  %8.0f cycles/op  "
                "ipis %5.0f\n",
                full_affinity ? "full aff" : "no aff",
                static_cast<double>(ops) / secs,
                static_cast<double>(ops) * 65536 / secs / 1e6,
                ops ? busy / static_cast<double>(ops) : 0.0,
                rig.kernel.core(0).counters.ipisReceived.value() +
                    rig.kernel.core(1).counters.ipisReceived.value());
    (void)data;
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    std::printf("iSCSI/TCP file-IO benchmark, 4 LUN connections "
                "(2 read, 2 write), 2 CPUs\n");
    std::printf("======================================================="
                "=================\n");
    run(false);
    run(true);
    std::printf("\nAs the paper's future-work section anticipates, "
                "affinity gains carry over from ttcp to storage "
                "request/response traffic.\n");
    return 0;
}
