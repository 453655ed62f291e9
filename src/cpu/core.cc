#include "src/cpu/core.hh"

#include "src/sim/logging.hh"
#include "src/sim/round.hh"

namespace na::cpu {

Core::Core(stats::Group *parent, const std::string &name, sim::CpuId cpu_id,
           const PlatformConfig &config_params, mem::SnoopDomain &domain,
           prof::BinAccounting &accounting_matrix)
    : stats::Group(parent, name),
      counters(this, "perf"),
      cpu(cpu_id),
      config(config_params),
      accounting(accounting_matrix),
      hierarchy(this, "caches", cpu_id, config_params.cacheGeometry,
                domain),
      itlb(this, "itlb", config_params.itlbEntries),
      dtlb(this, "dtlb", config_params.dtlbEntries),
      traceCache(this, "tc", config_params.traceCacheBytes,
                 prof::numFuncs),
      rng(config_params.seed * 7919 + static_cast<std::uint64_t>(cpu_id))
{
}

void
Core::setPeers(std::vector<Core *> peers)
{
    peerCores = std::move(peers);
}

void
Core::beginDispatch()
{
    accumulated = 0;
}

void
Core::touchCode(const prof::FuncDesc &desc, std::uint64_t &tc_misses,
                std::uint64_t &itlb_misses)
{
    tc_misses += traceCache.access(
        static_cast<std::uint16_t>(desc.id), desc.codeBytes);

    const sim::Addr base = prof::funcCodeAddr(desc.id);
    const sim::Addr last = base + (desc.codeBytes ? desc.codeBytes - 1 : 0);
    for (sim::Addr page = base >> mem::Tlb::pageShift;
         page <= (last >> mem::Tlb::pageShift); ++page) {
        if (!itlb.access(page << mem::Tlb::pageShift))
            ++itlb_misses;
    }
}

ChargeResult
Core::charge(const ChargeSpec &spec)
{
    const prof::FuncDesc &desc = prof::funcDesc(spec.func);
    curFunc = spec.func;

    // --- Code side: trace cache + ITLB -------------------------------
    std::uint64_t tc_misses = 0;
    std::uint64_t itlb_misses = 0;
    touchCode(desc, tc_misses, itlb_misses);
    const bool code_cold = tc_misses > 0;

    // --- Data side: cache hierarchy + DTLB ---------------------------
    // One tally for every touch: the inlined walk adds into it.
    mem::AccessResult data;
    std::uint64_t dtlb_misses = 0;
    for (const MemTouch &t : spec.touches) {
        if (t.bytes == 0)
            continue;
        hierarchy.accessInto(t.addr, t.bytes, t.write, spec.overlap, data);
        if (!mem::AddressAllocator::isUncacheable(t.addr)) {
            const sim::Addr lastb = t.addr + t.bytes - 1;
            for (sim::Addr page = t.addr >> mem::Tlb::pageShift;
                 page <= (lastb >> mem::Tlb::pageShift); ++page) {
                if (!dtlb.access(page << mem::Tlb::pageShift))
                    ++dtlb_misses;
            }
        }
    }
    const std::uint64_t llc_misses = data.llcMisses;
    const std::uint64_t l2_misses = data.l2Misses;

    // --- Branches -----------------------------------------------------
    std::uint64_t branches;
    if (spec.branchesOverride >= 0) {
        branches = static_cast<std::uint64_t>(spec.branchesOverride);
    } else {
        branches = static_cast<std::uint64_t>(
            static_cast<double>(spec.instructions) * desc.branchFrac);
    }
    std::uint64_t mispredicts;
    if (spec.mispredictsOverride >= 0) {
        mispredicts = static_cast<std::uint64_t>(spec.mispredictsOverride);
    } else {
        double rate = desc.mispredictBase;
        if (code_cold)
            rate *= config.coldMispredictBoost;
        const double expected = static_cast<double>(branches) * rate;
        mispredicts = static_cast<std::uint64_t>(expected);
        if (rng.chance(sim::fracPart(expected)))
            ++mispredicts;
        if (mispredicts > branches)
            mispredicts = branches;
    }

    // --- Machine clears -----------------------------------------------
    std::uint64_t clears = spec.asyncClears;
    {
        const double rate =
            config.intrinsicClearsPerKInstr[static_cast<std::size_t>(
                desc.bin)];
        const double expected =
            static_cast<double>(spec.instructions) * rate / 1000.0;
        clears += static_cast<std::uint64_t>(expected);
        if (rng.chance(sim::fracPart(expected)))
            ++clears;
    }

    // --- Cycle roll-up --------------------------------------------------
    double cycles = static_cast<double>(spec.instructions) * desc.baseCpi;
    cycles += desc.serializeCycles;
    cycles += static_cast<double>(spec.extraCycles);
    cycles += static_cast<double>(data.stallCycles);
    cycles += static_cast<double>(tc_misses) * config.tcMissPenalty;
    cycles += static_cast<double>(itlb_misses) * config.itlbWalkPenalty;
    cycles += static_cast<double>(dtlb_misses) * config.dtlbWalkPenalty;
    cycles +=
        static_cast<double>(mispredicts) * config.brMispredictPenalty;
    cycles += static_cast<double>(clears) * config.clearPenaltyEffective;

    // Deferred penalties from clears that hit us asynchronously since
    // the last charge (ordering clears, IPIs) — the "skid" cost.
    cycles += static_cast<double>(pendingClearPenalty);
    pendingClearPenalty = 0;
    pendingClearCount = 0;

    const sim::Tick cycles_i = sim::roundHalfUp(cycles);

    // --- Post everything ------------------------------------------------
    counters.busyCycles += static_cast<double>(cycles_i);
    counters.instructions += static_cast<double>(spec.instructions);
    counters.branches += static_cast<double>(branches);
    counters.brMispredicts += static_cast<double>(mispredicts);
    counters.llcMisses += static_cast<double>(llc_misses);
    counters.l2Misses += static_cast<double>(l2_misses);
    counters.tcMisses += static_cast<double>(tc_misses);
    counters.itlbMisses += static_cast<double>(itlb_misses);
    counters.dtlbMisses += static_cast<double>(dtlb_misses);
    counters.machineClears += static_cast<double>(clears);

    accounting.addAll(cpu, spec.func,
                      {cycles_i, spec.instructions, branches, mispredicts,
                       llc_misses, l2_misses, tc_misses, itlb_misses,
                       dtlb_misses, clears});

    // --- Coherence side effects on the victims ---------------------------
    for (Core *peer : peerCores) {
        if (!peer || peer == this)
            continue;
        const std::uint32_t stolen =
            data.stolenFrom[static_cast<std::size_t>(peer->cpuId())];
        if (stolen)
            peer->notifyLinesStolen(stolen);
    }

    // Record for async-clear skid attribution.
    RecentCharge &slot = recentCharges[recentNext];
    recentTotal -= slot.cycles;
    slot.func = spec.func;
    slot.cycles = cycles_i;
    recentTotal += cycles_i;
    recentNext = (recentNext + 1) % recentRingSize;

    accumulated += cycles_i;
    ChargeResult res;
    res.cycles = cycles_i;
    res.llcMisses = llc_misses;
    res.machineClears = clears;
    res.stolenFrom = data.stolenFrom;
    return res;
}

prof::FuncId
Core::sampleInterruptedFunc()
{
    if (recentTotal == 0)
        return curFunc;
    sim::Tick draw = rng.next() % recentTotal;
    for (const RecentCharge &rc : recentCharges) {
        if (rc.cycles > draw)
            return rc.func;
        draw -= rc.cycles;
    }
    return curFunc;
}

void
Core::addIdleCycles(sim::Tick cycles)
{
    counters.idleCycles += static_cast<double>(cycles);
}

void
Core::notifyLinesStolen(std::uint32_t lines)
{
    if (!busyFlag)
        return;
    for (std::uint32_t i = 0; i < lines; ++i) {
        if (!rng.chance(config.orderingClearProb))
            continue;
        ++counters.machineClears;
        accounting.add(cpu, sampleInterruptedFunc(),
                       prof::Event::MachineClears, 1);
        pendingClearPenalty += config.clearPenaltyEffective;
        ++pendingClearCount;
    }
}

void
Core::postIpiClear()
{
    if (!busyFlag)
        return;
    ++counters.machineClears;
    accounting.add(cpu, sampleInterruptedFunc(),
                   prof::Event::MachineClears, 1);
    pendingClearPenalty += config.clearPenaltyEffective;
    ++pendingClearCount;
}

} // namespace na::cpu
