/**
 * @file
 * A static-content web server under affinity: eight worker processes,
 * each serving one long-lived client connection with quasi-static
 * templates of different sizes (paper Section 4's web-serving analogy
 * and its SpecWeb future-work pointer).
 *
 * Run: ./build/examples/webserver
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
#include "src/workload/webserver.hh"

using namespace na;

namespace {

struct WebRig
{
    static constexpr int kWorkers = 8;

    explicit WebRig(core::AffinityMode mode)
        : root(nullptr, ""), kernel(&root, eq, cpu::PlatformConfig{}),
          pool(&root, kernel, 6144), driver(&root, kernel, pool)
    {
        for (int i = 0; i < kWorkers; ++i) {
            // Template sizes cycle through a small quasi-static set.
            static constexpr std::uint32_t templates[] = {
                4096, 8192, 16384, 32768};
            workload::WebServerConfig wcfg;
            wcfg.requestBytes = 512;
            wcfg.responseBytes = templates[i % 4];

            wires.push_back(std::make_unique<net::Wire>(
                &root, sim::format("wire%d", i), eq));
            nics.push_back(std::make_unique<net::Nic>(
                &root, sim::format("nic%d", i), i, kernel, pool,
                *wires[i]));
            driver.attachNic(*nics[i]);
            sockets.push_back(std::make_unique<net::Socket>(
                &root, sim::format("sock%d", i), kernel, driver, pool,
                net::connFlowKey(i)));
            driver.bindSocket(*sockets[i], *nics[i]);

            net::PeerRpcConfig rpc;
            rpc.reqBytes = wcfg.requestBytes;
            rpc.respBytes = wcfg.responseBytes;
            rpc.pipelineDepth = 2; // keep the worker busy
            peers.push_back(std::make_unique<net::RemotePeer>(
                &root, sim::format("client%d", i), eq, *wires[i],
                net::connFlowKey(i), net::PeerRole::Requester, net::TcpConfig{}, rpc));
            peers[i]->start();

            apps.push_back(std::make_unique<workload::WebServerApp>(
                &root, sim::format("worker%d", i), kernel, *sockets[i],
                wcfg));

            const sim::CpuId cpu = i * 2 / kWorkers;
            kernel.createTask(
                sim::format("httpd%d", i), apps.back().get(),
                core::pinsProcs(mode) ? (1u << cpu) : 0xffffffffu);
            if (core::pinsIrqs(mode)) {
                kernel.irqController().setSmpAffinity(
                    nics[i]->irqVector(), 1u << cpu);
            }
        }
        kernel.start();
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
    std::vector<std::unique_ptr<workload::WebServerApp>> apps;
};

void
run(core::AffinityMode mode)
{
    WebRig rig(mode);
    rig.eq.runUntil(40'000'000);
    std::uint64_t req0 = 0;
    double bytes0 = 0;
    for (auto &a : rig.apps) {
        req0 += a->requestsServed();
        bytes0 += a->bytesServed.value();
    }
    const sim::Tick t0 = rig.eq.now();
    rig.eq.runUntil(t0 + 200'000'000);
    rig.kernel.finalizeIdle(rig.eq.now());

    std::uint64_t reqs = 0;
    double bytes = -bytes0;
    for (auto &a : rig.apps) {
        reqs += a->requestsServed();
        bytes += a->bytesServed.value();
    }
    reqs -= req0;
    const double secs = sim::ticksToSeconds(rig.eq.now() - t0, 2.0e9);
    // Served Mb/s is the comparable figure; raw req/s shifts with the
    // template mix (small-template workers complete more requests when
    // scheduling is unfair).
    std::printf("%-10s  %6.0f Mb/s served  %8.0f req/s  "
                "avg %4.1f KB/req\n",
                std::string(core::affinityName(mode)).c_str(),
                bytes * 8 / secs / 1e6,
                static_cast<double>(reqs) / secs,
                reqs ? bytes / static_cast<double>(reqs) / 1024.0
                     : 0.0);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    std::printf("Static web serving: 8 workers, 4/8/16/32 KiB "
                "templates, 2 CPUs\n");
    std::printf("==========================================="
                "=================\n");
    for (core::AffinityMode m : core::allAffinityModes)
        run(m);
    std::printf("\nThe network-fast-path share of a web workload "
                "inherits the affinity gains the ttcp study "
                "quantifies.\n");
    return 0;
}
