#include "perfbench/host_sampler.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include <cerrno>
#include <cxxabi.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

namespace na::perfbench {

namespace {

constexpr std::array<const char *, numLayers> layerNames = {
    "mem",  "cpu",  "os",       "net.stack", "net.peer_wire", "sim",
    "prof", "core", "workload", "bench",     "other"};

bool
isIdentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/** @return true when @p s starts with the class name @p cls + "::". */
bool
startsWithClass(std::string_view s, std::string_view cls)
{
    return s.size() > cls.size() + 1 && s.substr(0, cls.size()) == cls &&
           s.substr(cls.size(), 2) == "::";
}

/** @return the load bias of the main executable (0 when not PIE). */
std::uintptr_t
mainProgramBias()
{
    std::uintptr_t bias = 0;
    dl_iterate_phdr(
        [](dl_phdr_info *info, std::size_t, void *out) {
            // The first object reported is the main program.
            *static_cast<std::uintptr_t *>(out) = info->dlpi_addr;
            return 1;
        },
        &bias);
    return bias;
}

/** Read-only mapping of a whole file, unmapped on destruction. */
class MappedFile
{
  public:
    explicit MappedFile(const char *path)
    {
        const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            throw std::runtime_error(std::string("cannot open ") + path);
        struct stat st{};
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            len = static_cast<std::size_t>(st.st_size);
            void *p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
            addr = p == MAP_FAILED ? nullptr : p;
        }
        ::close(fd);
        if (!addr)
            throw std::runtime_error(std::string("cannot map ") + path);
    }
    ~MappedFile() { ::munmap(addr, len); }
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const unsigned char *data() const
    {
        return static_cast<const unsigned char *>(addr);
    }
    std::size_t size() const { return len; }

    /** @return true when [off, off + n) lies inside the file. */
    bool
    covers(std::uint64_t off, std::uint64_t n) const
    {
        return off <= len && n <= len - off;
    }

  private:
    void *addr = nullptr;
    std::size_t len = 0;
};

// Sampler state shared with the signal handler.
std::atomic<std::uintptr_t *> sampleBuf{nullptr};
std::size_t sampleCap = 0;
std::atomic<std::size_t> sampleNext{0};

void
onSigprof(int, siginfo_t *, void *ctx)
{
    const int saved_errno = errno;
    const auto *uc = static_cast<const ucontext_t *>(ctx);
#if defined(__x86_64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "perfbench sampler: unsupported architecture"
#endif
    const std::size_t i = sampleNext.fetch_add(1, std::memory_order_relaxed);
    std::uintptr_t *buf = sampleBuf.load(std::memory_order_relaxed);
    if (buf && i < sampleCap)
        buf[i] = pc;
    errno = saved_errno;
}

} // namespace

const char *
layerName(Layer layer)
{
    return layerNames[static_cast<std::size_t>(layer)];
}

Layer
layerOfSymbol(std::string_view name)
{
    // The first "na::" that starts a qualified name owns the function.
    // Template instantiations of std:: code name their element type
    // (std::vector<na::net::Skb>::...), so they land with their user.
    std::size_t pos = 0;
    while ((pos = name.find("na::", pos)) != std::string_view::npos) {
        if (pos == 0 || !isIdentChar(name[pos - 1]))
            break;
        pos += 4;
    }
    if (pos == std::string_view::npos)
        return Layer::Other;
    const std::string_view rest = name.substr(pos + 4);
    const std::string_view ns = rest.substr(0, rest.find("::"));
    if (ns == "mem")
        return Layer::Mem;
    if (ns == "cpu")
        return Layer::Cpu;
    if (ns == "os")
        return Layer::Os;
    if (ns == "net") {
        const std::string_view cls = rest.substr(5);
        for (std::string_view peer :
             {"RemotePeer", "FlowClientPeer", "Wire", "FaultInjector"}) {
            if (startsWithClass(cls, peer))
                return Layer::NetPeerWire;
        }
        return Layer::NetStack;
    }
    if (ns == "sim")
        return Layer::Sim;
    if (ns == "prof")
        return Layer::Prof;
    if (ns == "core")
        return Layer::Core;
    if (ns == "workload")
        return Layer::Workload;
    if (ns == "perfbench")
        return Layer::Bench;
    return Layer::Other;
}

SymbolMap::SymbolMap()
{
    const MappedFile file("/proc/self/exe");
    const unsigned char *base = file.data();
    if (!file.covers(0, sizeof(Elf64_Ehdr)) ||
        std::memcmp(base, ELFMAG, SELFMAG) != 0 ||
        base[EI_CLASS] != ELFCLASS64) {
        throw std::runtime_error("benchmark binary is not a 64-bit ELF");
    }
    Elf64_Ehdr eh;
    std::memcpy(&eh, base, sizeof eh);
    if (eh.e_shentsize != sizeof(Elf64_Shdr) ||
        !file.covers(eh.e_shoff,
                     std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr))) {
        throw std::runtime_error("benchmark binary: bad section table");
    }
    auto section = [&](std::size_t i) {
        Elf64_Shdr sh;
        std::memcpy(&sh, base + eh.e_shoff + i * sizeof(Elf64_Shdr),
                    sizeof sh);
        return sh;
    };

    const std::uintptr_t bias = mainProgramBias();
    for (std::size_t i = 0; i < eh.e_shnum; ++i) {
        const Elf64_Shdr symtab = section(i);
        if (symtab.sh_type != SHT_SYMTAB || symtab.sh_link >= eh.e_shnum)
            continue;
        const Elf64_Shdr strtab = section(symtab.sh_link);
        if (!file.covers(symtab.sh_offset, symtab.sh_size) ||
            !file.covers(strtab.sh_offset, strtab.sh_size)) {
            throw std::runtime_error("benchmark binary: bad symbol table");
        }
        const char *strs =
            reinterpret_cast<const char *>(base + strtab.sh_offset);
        const std::size_t n = symtab.sh_size / sizeof(Elf64_Sym);
        for (std::size_t s = 0; s < n; ++s) {
            Elf64_Sym sym;
            std::memcpy(&sym,
                        base + symtab.sh_offset + s * sizeof(Elf64_Sym),
                        sizeof sym);
            if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC ||
                sym.st_value == 0 || sym.st_size == 0 ||
                sym.st_name >= strtab.sh_size) {
                continue;
            }
            const char *mangled = strs + sym.st_name;
            if (!std::memchr(mangled, '\0', strtab.sh_size - sym.st_name))
                continue;
            int status = 0;
            std::unique_ptr<char, decltype(&std::free)> demangled(
                abi::__cxa_demangle(mangled, nullptr, nullptr, &status),
                &std::free);
            const Layer layer = status == 0 && demangled
                                    ? layerOfSymbol(demangled.get())
                                    : layerOfSymbol(mangled);
            const std::uintptr_t lo = bias + sym.st_value;
            ranges.push_back({lo, lo + sym.st_size, layer});
        }
    }
    if (ranges.empty())
        throw std::runtime_error("benchmark binary has no symbol table");
    std::sort(ranges.begin(), ranges.end(),
              [](const Range &a, const Range &b) { return a.lo < b.lo; });
}

Layer
SymbolMap::layerOf(std::uintptr_t pc) const
{
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), pc,
        [](std::uintptr_t v, const Range &r) { return v < r.lo; });
    if (it == ranges.begin())
        return Layer::Other;
    --it;
    return pc < it->hi ? it->layer : Layer::Other;
}

ProfSampler::ProfSampler(std::size_t capacity) : buffer(capacity) {}

ProfSampler::~ProfSampler() { stop(); }

void
ProfSampler::start(long interval_us)
{
    if (running || sampleBuf.load() != nullptr)
        throw std::runtime_error("ProfSampler: another sampler is running");
    sampleCap = buffer.size();
    sampleNext.store(0);
    sampleBuf.store(buffer.data());

    struct sigaction sa{};
    sa.sa_sigaction = onSigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGPROF, &sa, nullptr) != 0)
        throw std::runtime_error("ProfSampler: sigaction failed");
    itimerval tv{};
    tv.it_interval.tv_usec = interval_us;
    tv.it_value.tv_usec = interval_us;
    if (::setitimer(ITIMER_PROF, &tv, nullptr) != 0)
        throw std::runtime_error("ProfSampler: setitimer failed");
    running = true;
}

void
ProfSampler::stop()
{
    if (!running)
        return;
    itimerval off{};
    ::setitimer(ITIMER_PROF, &off, nullptr);
    // Ignore rather than restore the default action: a SIGPROF still
    // pending would otherwise terminate the process.
    struct sigaction sa{};
    sa.sa_handler = SIG_IGN;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPROF, &sa, nullptr);
    sampleBuf.store(nullptr);
    running = false;
}

std::vector<std::uintptr_t>
ProfSampler::samples() const
{
    const std::size_t n =
        std::min(sampleNext.load(std::memory_order_relaxed), buffer.size());
    return {buffer.begin(),
            buffer.begin() + static_cast<std::ptrdiff_t>(n)};
}

LayerCounts
attribute(const SymbolMap &symbols, const std::vector<std::uintptr_t> &pcs)
{
    LayerCounts counts{};
    for (std::uintptr_t pc : pcs)
        ++counts[static_cast<std::size_t>(symbols.layerOf(pc))];
    return counts;
}

} // namespace na::perfbench
