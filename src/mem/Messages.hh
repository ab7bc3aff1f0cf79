/**
 * @file
 * Protocol message definitions shared by the cache coherence protocol
 * (MOESI directory), the DMA engines, and the SPM coherence protocol.
 *
 * Messages are routed by the MemNet fabric; each message class below
 * maps onto one NoC packet of either control (8B) or data (72B) size.
 */

#ifndef SPMCOH_MEM_MESSAGES_HH
#define SPMCOH_MEM_MESSAGES_HH

#include <array>
#include <cstdint>

#include "noc/Traffic.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** A full cache line of payload bytes. */
struct LineData
{
    std::array<std::uint8_t, lineBytes> bytes{};

    std::uint64_t
    read64(std::uint32_t off) const
    {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | bytes[off + i];
        return v;
    }

    void
    write64(std::uint32_t off, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            bytes[off + i] = static_cast<std::uint8_t>(v & 0xff);
            v >>= 8;
        }
    }

    /** Little-endian read of @p n bytes (1..8) at @p off. */
    std::uint64_t
    readN(std::uint32_t off, std::uint32_t n) const
    {
        std::uint64_t v = 0;
        for (std::uint32_t i = n; i-- > 0;)
            v = (v << 8) | bytes[off + i];
        return v;
    }

    /** Little-endian write of @p n bytes (1..8) at @p off. */
    void
    writeN(std::uint32_t off, std::uint32_t n, std::uint64_t v)
    {
        for (std::uint32_t i = 0; i < n; ++i) {
            bytes[off + i] = static_cast<std::uint8_t>(v & 0xff);
            v >>= 8;
        }
    }
};

/** Kinds of endpoints reachable through the MemNet fabric. */
enum class Endpoint : std::uint8_t
{
    L1D,      ///< per-core data cache controller
    L1I,      ///< per-core instruction cache controller
    Dir,      ///< per-tile L2 slice + directory controller
    MemCtrl,  ///< memory controller
    Dmac,     ///< per-core DMA controller
    Coh,      ///< per-core SPM coherence controller (filter + SPMDir)
    CohDir,   ///< per-tile FilterDir slice
};

/** Protocol message opcodes. */
enum class MsgType : std::uint8_t
{
    // L1 -> Dir requests
    GetS,          ///< read miss
    GetX,          ///< write miss / upgrade
    PutM,          ///< dirty eviction (data)
    PutS,          ///< clean shared eviction
    PutE,          ///< clean exclusive eviction
    IfetchGet,     ///< instruction fetch (read-only, untracked)

    // Dir -> L1 responses / forwards
    DataS,         ///< fill with shared permission (data)
    DataE,         ///< fill with exclusive permission (data)
    DataM,         ///< fill with modify permission (data)
    PutAck,        ///< eviction acknowledged
    FwdGetS,       ///< forward read to owner
    FwdGetX,       ///< forward write to owner
    Inv,           ///< invalidate (GetX, recall, or DMA write)
    FwdDmaRead,    ///< owner must provide line snapshot for DMA

    // L1 -> L1 / Dir completion traffic
    Unblock,       ///< requestor received its fill; dir may proceed
    FwdAckData,    ///< owner hands dirty line back to dir (data)
    InvAck,        ///< invalidation acknowledged, line was clean
    InvAckData,    ///< invalidation acknowledged, dirty data enclosed

    // Dir <-> memory controller
    MemRead,       ///< line fetch
    MemWrite,      ///< line writeback (data)
    MemReadResp,   ///< fetched line (data)
    MemWriteAck,   ///< writeback acknowledged

    // Update-based protocols (Dragon): stores to shared lines are
    // applied at the home slice and pushed to the sharers.
    UpdX,          ///< L1 -> Dir: write-update request (word enclosed)
    Update,        ///< Dir -> sharer: post-write line (data)
    UpdAck,        ///< sharer -> Dir: update applied
    UpdData,       ///< Dir -> writer: post-write line, stays Shared

    // DMAC <-> Dir (coherent DMA, Sec. 2.1)
    DmaRead,       ///< dma-get line request
    DmaWrite,      ///< dma-put line (data); invalidates cached copies
    DmaReadResp,   ///< line for dma-get (data)
    DmaWriteAck,   ///< dma-put line complete

    // SPM coherence protocol (Sec. 3) -- all TrafficClass::CohProt
    FilterCheck,       ///< core -> FilterDir: is base unmapped?
    FilterCheckAck,    ///< FilterDir -> core: unmapped, cache it
    FilterCheckNack,   ///< FilterDir -> core: mapped remotely, served
    RemoteSpmData,     ///< remote SPM -> core: guarded load data
    RemoteSpmStAck,    ///< remote SPM -> core: guarded store done
    FilterInval,       ///< mapping core -> FilterDir: base now mapped
    FilterInvalDone,   ///< FilterDir -> mapping core: sharers clean
    FilterInvalFwd,    ///< FilterDir -> sharer: drop filter entry
    FilterInvalFwdAck, ///< sharer -> FilterDir
    FilterEvictNotify, ///< core -> FilterDir: filter entry evicted
    SpmDirect,         ///< core -> core: plain remote SPM load/store
};

/**
 * One protocol message. Kept as a value type; the fabric copies it
 * into the delivery closure.
 */
struct Message
{
    MsgType type{};
    Addr addr = 0;          ///< line or base address
    CoreId src = invalidCore;
    CoreId requestor = invalidCore; ///< original requestor (forwards)
    bool dirty = false;     ///< data enclosed is dirty wrt memory
    bool isWrite = false;   ///< guarded access direction
    bool hasData = false;
    std::uint64_t aux = 0;  ///< DMA tag, SPM offset, misc
    /** Traffic category the transaction chain belongs to (Fig. 10). */
    TrafficClass cls = TrafficClass::Read;
    LineData data{};
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MESSAGES_HH
