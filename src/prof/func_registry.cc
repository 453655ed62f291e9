#include "src/prof/func_registry.hh"

#include "src/sim/logging.hh"

namespace na::prof {

using detail::funcTable;

void
detail::badFuncId(const char *who, std::size_t idx)
{
    sim::panic("%s: bad FuncId %zu", who, idx);
}

const FuncDesc &
funcDescByName(std::string_view name)
{
    for (const FuncDesc &d : funcTable) {
        if (d.name == name)
            return d;
    }
    sim::panic("funcDescByName: unknown function '%.*s'",
               static_cast<int>(name.size()), name.data());
}

std::uint64_t
funcCodeAddr(FuncId id)
{
    // Lazily build a page-aligned code layout: kernel functions packed
    // into KernelText, user functions into UserText.
    static const std::array<std::uint64_t, numFuncs> layout = [] {
        std::array<std::uint64_t, numFuncs> addrs{};
        constexpr std::uint64_t page = 4096;
        constexpr std::uint64_t regionBytes = 1ULL << 30;
        // Region bases match mem::AddressAllocator's fixed layout
        // (KernelText == region 0, UserText == region 4).
        constexpr std::uint64_t kernelBase = 0 * regionBytes;
        constexpr std::uint64_t userBase = 4 * regionBytes;
        std::uint64_t kcur = 0;
        std::uint64_t ucur = 0;
        for (std::size_t f = 0; f < numFuncs; ++f) {
            const FuncDesc &d = funcTable[f];
            const std::uint64_t span =
                (d.codeBytes + page - 1) / page * page;
            if (d.bin == Bin::User) {
                addrs[f] = userBase + ucur;
                ucur += span;
            } else {
                addrs[f] = kernelBase + kcur;
                kcur += span;
            }
        }
        return addrs;
    }();
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= numFuncs)
        detail::badFuncId("funcCodeAddr", idx);
    return layout[idx];
}

FuncId
nicIrqFunc(int nic_index)
{
    if (nic_index < 0 || nic_index > 7)
        sim::panic("nicIrqFunc: NIC index %d out of range", nic_index);
    return static_cast<FuncId>(
        static_cast<std::uint16_t>(FuncId::IrqNic0) + nic_index);
}

} // namespace na::prof
