/**
 * @file
 * Sampled host self time per simulator layer.
 *
 * A SIGPROF interval timer interrupts the process every few hundred
 * microseconds of CPU time; the handler records the interrupted
 * program counter. After the run, each PC is resolved against the
 * benchmark binary's own ELF symbol table and attributed to the
 * simulator namespace that owns the function (na::mem, na::cpu, ...).
 * Only the interrupted function counts, so shares are self time.
 */

#ifndef NETAFFINITY_PERFBENCH_HOST_SAMPLER_HH
#define NETAFFINITY_PERFBENCH_HOST_SAMPLER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace na::perfbench {

/** Host-side layers self time is attributed to. */
enum class Layer
{
    Mem,         ///< na::mem: caches, snoops, TLBs, DMA coherence
    Cpu,         ///< na::cpu: Core::charge and the trace cache
    Os,          ///< na::os: kernel, scheduler, IRQs, timers
    NetStack,    ///< na::net: driver, NIC, sockets, TCP, steering
    NetPeerWire, ///< na::net: RemotePeer, FlowClientPeer, Wire, faults
    Sim,         ///< na::sim: event queue, RNG, logging
    Prof,        ///< na::prof: bin accounting and samplers
    Core,        ///< na::core: System, Experiment, Campaign, results I/O
    Workload,    ///< na::workload: ttcp and flow-mix applications
    Bench,       ///< na::perfbench: this benchmark's own code
    Other,       ///< everything else: libc, libstdc++, na::stats, ...
    Count
};

constexpr std::size_t numLayers = static_cast<std::size_t>(Layer::Count);

/** @return the metric prefix of @p layer ("mem", "net.stack", ...). */
const char *layerName(Layer layer);

/** Attribute a demangled C++ symbol name to a layer. */
Layer layerOfSymbol(std::string_view demangled);

/** Function address ranges of the running binary, by layer. */
class SymbolMap
{
  public:
    /**
     * Read the .symtab of /proc/self/exe.
     * @throws std::runtime_error when the binary has no symbol table.
     */
    SymbolMap();

    /** @return the layer of the function containing @p pc. */
    Layer layerOf(std::uintptr_t pc) const;

  private:
    struct Range
    {
        std::uintptr_t lo = 0;
        std::uintptr_t hi = 0;
        Layer layer = Layer::Other;
    };
    std::vector<Range> ranges; ///< sorted by lo
};

/**
 * Process-wide SIGPROF sampler. At most one may be running; samples
 * beyond the buffer capacity are counted but not kept.
 */
class ProfSampler
{
  public:
    explicit ProfSampler(std::size_t capacity);
    ~ProfSampler();
    ProfSampler(const ProfSampler &) = delete;
    ProfSampler &operator=(const ProfSampler &) = delete;

    /** Arm the timer: one sample per @p interval_us of CPU time. */
    void start(long interval_us);

    /** Disarm the timer; later SIGPROFs are ignored. */
    void stop();

    /** @return the PCs recorded so far (call after stop()). */
    std::vector<std::uintptr_t> samples() const;

  private:
    std::vector<std::uintptr_t> buffer;
    bool running = false;
};

/** Samples per layer. */
using LayerCounts = std::array<std::uint64_t, numLayers>;

/** Attribute every sample in @p pcs to its layer. */
LayerCounts attribute(const SymbolMap &symbols,
                      const std::vector<std::uintptr_t> &pcs);

} // namespace na::perfbench

#endif // NETAFFINITY_PERFBENCH_HOST_SAMPLER_HH
