/**
 * @file
 * The ttcp micro-benchmark (paper Section 4).
 *
 * One instance owns one connection: a transmitter loops write(buf, N),
 * a receiver loops read(buf, N), reusing the same user buffer every
 * iteration — so transmit payload is served from cache while receive
 * payload is always DMA-cold, exactly the caching behaviour the paper's
 * copy analysis depends on.
 */

#ifndef NETAFFINITY_WORKLOAD_TTCP_HH
#define NETAFFINITY_WORKLOAD_TTCP_HH

#include <cstdint>
#include <string>

#include "src/net/socket.hh"
#include "src/os/task.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::os {
class ExecContext;
class Kernel;
} // namespace na::os

namespace na::workload {

/** Direction of the bulk transfer, from the SUT's point of view. */
enum class TtcpMode
{
    Transmit,
    Receive,
};

/** ttcp parameters. */
struct TtcpConfig
{
    TtcpMode mode = TtcpMode::Transmit;
    std::uint32_t msgSize = 65536; ///< bytes per read()/write()
};

/** One ttcp process. */
class TtcpApp : public os::TaskLogic, public stats::Group
{
  public:
    TtcpApp(stats::Group *parent, const std::string &name,
            os::Kernel &kernel, net::Socket &socket,
            const TtcpConfig &config);

    os::StepStatus step(os::ExecContext &ctx) override;

    std::uint64_t bytesRead() const
    {
        return static_cast<std::uint64_t>(appBytesRead.value());
    }

    stats::Scalar appBytesWritten;
    stats::Scalar appBytesRead;
    stats::Scalar syscalls;

  private:
    enum class Phase
    {
        Connect,
        Run,
    };

    os::Kernel &kernel;
    net::Socket &socket;
    TtcpConfig cfg;
    sim::Addr userBuf;
    Phase phase = Phase::Connect;
    bool inSyscall = false;
    std::uint32_t writeOffset = 0;
    std::uint32_t writeRemaining = 0;

    os::StepStatus stepTransmit(os::ExecContext &ctx);
    os::StepStatus stepReceive(os::ExecContext &ctx);
};

} // namespace na::workload

#endif // NETAFFINITY_WORKLOAD_TTCP_HH
