/**
 * @file
 * The registry of simulated kernel/stack functions.
 *
 * Each simulated "function" mirrors a Linux-2.4.20 symbol (or a small
 * cluster of symbols) and carries the static properties the CPU timing
 * model needs: functional bin, decoded-code footprint, branch density,
 * baseline mispredict rate, base CPI of its instruction mix, and any
 * fixed serialization cost per invocation (syscall entry, etc.).
 *
 * The set is fixed at compile time; FuncId indexes every per-function
 * array in the profiler.
 */

#ifndef NETAFFINITY_PROF_FUNC_REGISTRY_HH
#define NETAFFINITY_PROF_FUNC_REGISTRY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/prof/bins.hh"

namespace na::prof {

/**
 * X-macro master list: FUNC(id, display, bin, codeBytes, branchFrac,
 * mispredictBase, baseCpi, serializeCycles)
 */
#define NA_FUNC_LIST(FUNC)                                                \
    /* Interface: syscalls, sockets API, schedule glue */                 \
    FUNC(SysWrite,      "sys_write",          Interface, 2816, 0.19,      \
         0.0030, 1.60, 1600)                                               \
    FUNC(SysRead,       "sys_read",           Interface, 2816, 0.19,      \
         0.0030, 1.60, 1600)                                               \
    FUNC(SockSendmsg,   "inet_sendmsg",       Interface, 1920, 0.18,      \
         0.0025, 1.40, 0)                                                 \
    FUNC(SockRecvmsg,   "inet_recvmsg",       Interface, 1920, 0.18,      \
         0.0025, 1.40, 0)                                                 \
    FUNC(Schedule,      "schedule",           Interface, 2304, 0.20,      \
         0.0060, 1.50, 3000)                                               \
    FUNC(TryToWakeUp,   "try_to_wake_up",     Interface, 1280, 0.20,      \
         0.0050, 1.40, 500)                                                 \
    FUNC(LoadBalance,   "load_balance",       Interface, 1792, 0.22,      \
         0.0080, 1.50, 0)                                                 \
    FUNC(RescheduleIpi, "smp_reschedule_interrupt", Interface, 384, 0.15, \
         0.0050, 1.30, 800)                                               \
    /* Engine: TCP/IP protocol state machine */                           \
    FUNC(TcpSendmsg,    "tcp_sendmsg",        Engine, 3584, 0.17,         \
         0.0050, 2.20, 0)                                                 \
    FUNC(TcpRecvmsg,    "tcp_recvmsg",        Engine, 3072, 0.17,         \
         0.0050, 2.20, 0)                                                 \
    FUNC(TcpTransmitSkb,"tcp_transmit_skb",   Engine, 2560, 0.17,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(TcpWriteXmit,  "tcp_write_xmit",     Engine, 1536, 0.18,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(TcpV4Rcv,      "tcp_v4_rcv",         Engine, 2816, 0.16,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(TcpRcvEst,     "tcp_rcv_established",Engine, 3840, 0.17,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(TcpAck,        "tcp_ack",            Engine, 2304, 0.17,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(TcpSelectWindow,"__tcp_select_window",Engine, 896, 0.16,         \
         0.0040, 2.20, 0)                                                 \
    FUNC(TcpDataQueue,  "tcp_data_queue",     Engine, 1792, 0.17,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(IpQueueXmit,   "ip_queue_xmit",      Engine, 1664, 0.16,         \
         0.0045, 2.20, 0)                                                 \
    FUNC(IpRcv,         "ip_rcv",             Engine, 1408, 0.16,         \
         0.0045, 2.20, 0)                                                 \
    /* Buf mgmt: skbuff slab + control structures */                      \
    FUNC(AllocSkb,      "alloc_skb",          BufMgmt, 1024, 0.16,        \
         0.0045, 1.60, 120)                                                 \
    FUNC(KfreeSkb,      "kfree_skb",          BufMgmt, 896, 0.16,         \
         0.0045, 1.10, 0)                                                 \
    FUNC(SkbQueueOps,   "skb_queue_ops",      BufMgmt, 768, 0.17,         \
         0.0045, 1.10, 0)                                                 \
    FUNC(SockWfree,     "sock_wfree",         BufMgmt, 640, 0.16,         \
         0.0040, 1.10, 0)                                                 \
    FUNC(TcpMemSchedule,"tcp_mem_schedule",   BufMgmt, 768, 0.17,         \
         0.0045, 1.10, 0)                                                 \
    /* Copies: payload movement only */                                   \
    FUNC(CopyFromUser,  "copy_from_user",     Copies, 512, 0.022,         \
         0.0035, 1.35, 0)                                                 \
    FUNC(CopyToUser,    "copy_to_user",       Copies, 448, 0.110,         \
         0.0020, 1.80, 40)                                                \
    /* Driver: per-NIC ISRs + descriptor/softirq work */                  \
    FUNC(IrqNic0,       "IRQ0x19_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic1,       "IRQ0x1a_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic2,       "IRQ0x1b_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic3,       "IRQ0x1d_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic4,       "IRQ0x23_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic5,       "IRQ0x24_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic6,       "IRQ0x25_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(IrqNic7,       "IRQ0x27_interrupt",  Driver, 896, 0.14,          \
         0.0150, 2.00, 500)                                               \
    FUNC(NetRxAction,   "net_rx_action",      Driver, 1280, 0.15,         \
         0.0060, 2.00, 0)                                                 \
    FUNC(NetTxAction,   "net_tx_action",      Driver, 1024, 0.15,         \
         0.0060, 2.00, 0)                                                 \
    FUNC(E1000CleanRx,  "e1000_clean_rx_irq", Driver, 1792, 0.14,         \
         0.0050, 2.00, 0)                                                 \
    FUNC(E1000CleanTx,  "e1000_clean_tx_irq", Driver, 1280, 0.14,         \
         0.0050, 2.00, 0)                                                 \
    FUNC(E1000Xmit,     "e1000_xmit_frame",   Driver, 1536, 0.14,         \
         0.0050, 2.00, 0)                                                 \
    FUNC(NetifRx,       "netif_rx",           Driver, 640, 0.14,          \
         0.0050, 1.80, 0)                                                 \
    /* Locks */                                                           \
    FUNC(LockSock,      "lock_sock",          Locks, 256, 0.26,           \
         0.0080, 1.00, 0)                                                 \
    FUNC(LockSkbPool,   "spin_lock_skbpool",  Locks, 192, 0.26,           \
         0.0080, 1.00, 0)                                                 \
    FUNC(LockRq,        "spin_lock_rq",       Locks, 192, 0.26,           \
         0.0080, 1.00, 0)                                                 \
    FUNC(LockDevQueue,  "spin_lock_devq",     Locks, 192, 0.26,           \
         0.0080, 1.00, 0)                                                 \
    /* Timers */                                                          \
    FUNC(DoGettimeofday,"do_gettimeofday",    Timers, 512, 0.10,          \
         0.0015, 1.20, 1500)                                               \
    FUNC(TcpResetXmitTimer,"tcp_reset_xmit_timer", Timers, 640, 0.13,     \
         0.0020, 1.10, 0)                                                 \
    FUNC(TimerTick,     "timer_tick",         Timers, 1024, 0.14,         \
         0.0020, 1.20, 400)                                               \
    FUNC(RunTimerList,  "run_timer_list",     Timers, 896, 0.15,          \
         0.0020, 1.15, 0)                                                 \
    FUNC(TcpDelackTimer,"tcp_delack_timer",   Timers, 640, 0.14,          \
         0.0020, 1.15, 0)                                                 \
    /* User */                                                            \
    FUNC(TtcpLoop,      "ttcp_main_loop",     User, 768, 0.08,            \
         0.0020, 1.00, 0)                                                 \
    FUNC(UserApp,       "user_application",   User, 4096, 0.12,           \
         0.0050, 1.10, 0)                                                 \
    /* Connection setup/teardown (appended so earlier ids keep slots) */  \
    FUNC(SysAccept,     "sys_accept",         Interface, 2816, 0.19,      \
         0.0030, 1.60, 1600)                                              \
    FUNC(TcpConnRequest,"tcp_v4_conn_request",Engine, 2816, 0.16,         \
         0.0045, 2.20, 0)

/** Compile-time identifier of every simulated function. */
enum class FuncId : std::uint16_t
{
#define NA_FUNC_ENUM(id, display, bin, code, br, misp, cpi, ser) id,
    NA_FUNC_LIST(NA_FUNC_ENUM)
#undef NA_FUNC_ENUM
    NumFuncs
};

constexpr std::size_t numFuncs = static_cast<std::size_t>(FuncId::NumFuncs);

/** Static properties of one simulated function. */
struct FuncDesc
{
    FuncId id;
    std::string_view name;     ///< Linux symbol name (paper Table 4)
    Bin bin;                   ///< functional bin (paper Table 1)
    std::uint32_t codeBytes;   ///< decoded footprint for TC/ITLB model
    double branchFrac;         ///< branches / instructions
    double mispredictBase;     ///< warm-predictor mispredict rate
    double baseCpi;            ///< CPI of the mix absent stalls
    std::uint32_t serializeCycles; ///< fixed cost per invocation
};

namespace detail {

/** Every function's descriptor, indexed by FuncId. */
inline constexpr std::array<FuncDesc, numFuncs> funcTable = {{
#define NA_FUNC_DESC(id, display, bin, code, br, misp, cpi, ser)          \
    FuncDesc{FuncId::id, display, Bin::bin, code, br, misp, cpi, ser},
    NA_FUNC_LIST(NA_FUNC_DESC)
#undef NA_FUNC_DESC
}};

/** Panic: @p idx names no function (called by @p who). */
[[noreturn]] void badFuncId(const char *who, std::size_t idx);

} // namespace detail

/** @return descriptor for @p id. */
inline const FuncDesc &
funcDesc(FuncId id)
{
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= numFuncs) [[unlikely]]
        detail::badFuncId("funcDesc", idx);
    return detail::funcTable[idx];
}

/** @return descriptor by symbol name; panics if unknown. */
const FuncDesc &funcDescByName(std::string_view name);

/** @return FuncId of the ISR for NIC @p nic_index (0-7). */
FuncId nicIrqFunc(int nic_index);

/**
 * @return simulated address of the function's code. Kernel functions
 *         live in mem::Region::KernelText, Bin::User functions in
 *         mem::Region::UserText; each function occupies its own
 *         page-aligned slot so ITLB pressure tracks code working set.
 */
std::uint64_t funcCodeAddr(FuncId id);

} // namespace na::prof

#endif // NETAFFINITY_PROF_FUNC_REGISTRY_HH
