/**
 * @file
 * One slice of the distributed FilterDir (Sec. 3.1, 3.3; Table 1:
 * 4K entries total, fully associative, pseudoLRU).
 *
 * The FilterDir extends the cache directory with a CAM of GM base
 * addresses known not to be mapped to any SPM, plus a sharer
 * bitvector of the cores caching each base in their filters. It is
 * the serialization point for filter fills (Fig. 6b) and filter
 * invalidations at mapping time (Fig. 6a), and it launches the
 * chip-wide SPMDir broadcast when it has no information (Fig. 5c/d).
 */

#ifndef SPMCOH_COHERENCE_FILTERDIRSLICE_HH
#define SPMCOH_COHERENCE_FILTERDIRSLICE_HH

#include <cstdint>
#include <vector>

#include "coherence/CohFabric.hh"
#include "mem/MemNet.hh"
#include "sim/PseudoLru.hh"
#include "sim/SlotTable.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** FilterDir slice configuration. */
struct FilterDirParams
{
    std::uint32_t entriesPerSlice = 64;  ///< 4K total / 64 slices
    Tick lookupLatency = 2;
    Tick probeLatency = 1;   ///< SPMDir CAM lookup at a probed core
    Tick retryDelay = 32;
};

/** One FilterDir slice, colocated with the tile's cache directory. */
class FilterDirSlice
{
  public:
    FilterDirSlice(MemNet &net_, CohFabric &fab_, CoreId tile_,
                   const FilterDirParams &p_, const std::string &name);

    /** MemNet delivery entry point (Endpoint::CohDir). */
    void handle(const Message &msg);

    StatGroup &statGroup() { return stats; }
    const StatGroup &statGroup() const { return stats; }

    /** Test hooks. */
    bool tracks(Addr base) const;
    std::uint64_t sharersOf(Addr base) const;
    std::uint32_t validEntries() const;

  private:
    enum class SlotState : std::uint8_t { Free, Valid, Draining };

    struct Slot
    {
        SlotState st = SlotState::Free;
        Addr base = 0;
        std::uint64_t sharers = 0;
    };

    struct PendingOp
    {
        enum class Kind : std::uint8_t { Drain, MapInval };
        Kind kind = Kind::Drain;
        std::uint32_t slot = 0;       ///< Drain: slot being recycled
        Addr newBase = 0;             ///< Drain: base to install
        CoreId requestor = invalidCore;
        std::uint64_t aux = 0;        ///< passthrough (req id / tag)
        std::uint32_t pendingAcks = 0;
    };

    /** A base with a broadcast in flight and the operations parked
     *  behind it (pooled copies, in arrival order). */
    struct BusyBase
    {
        Addr base;
        std::vector<Message *> waiting;
    };

    /** Base of a released busyBases entry (never a buffer base). */
    static constexpr Addr idleBase = ~Addr(0);

    void onFilterCheck(const Message &msg);
    void onFilterInval(const Message &msg);
    BusyBase *findBusy(Addr base);
    void markBusy(Addr base);
    /** Per-base serialization: true if queued behind a broadcast. */
    bool enqueueIfBusy(Addr base, const Message &msg);
    void releaseBase(Addr base);
    void onEvictNotify(const Message &msg);
    void onFwdAck(const Message &msg);

    /** Broadcast SPMDir probe, aggregated (docs/architecture.md,
     *  "Aggregated FilterDir broadcast"). */
    void broadcastProbe(const Message &msg, Addr base);

    /** Install @p base for @p requestor, draining a victim if full. */
    void insertAndAck(Addr base, CoreId requestor, std::uint64_t aux);

    void sendToCore(CoreId c, MsgType t, Addr addr, std::uint64_t aux,
                    bool has_data = false, std::uint64_t value = 0);

    std::int32_t findSlot(Addr base, SlotState st) const;

    static std::uint64_t bit(CoreId c)
    { return std::uint64_t(1) << c; }

    MemNet &net;
    CohFabric &fab;
    CoreId tile;
    FilterDirParams p;
    /** Worst-case contention-free control-packet latency from this
     *  tile to any tile: both legs of the broadcast take this long. */
    Tick fanOutLatency;
    std::vector<Slot> slots;
    PseudoLru lru;
    /**
     * Bases with a broadcast in flight. Checks and map-invalidations
     * for the same base queue behind it; without this serialization a
     * mapping racing with a broadcast's conclusion could leave a
     * stale "not mapped" verdict in a filter (Sec. 3.3 invariant).
     * A handful are in flight at once, so a linear scan over a flat
     * table (released entries keep their queue capacity) beats a map.
     */
    std::vector<BusyBase> busyBases;
    /** Broadcast fan-outs awaiting acks; the id rides in aux. */
    SlotTable<PendingOp> ops;
    StatGroup stats;
    /** Hot-path counters, resolved once at construction. */
    Counter &stChecks;
    Counter &stCheckHits;
    Counter &stBroadcasts;
    Counter &stRemoteHits;
    Counter &stQueuedOps;
    Counter &stInserts;
    Counter &stInsertRetries;
    Counter &stEvictions;
    Counter &stMapInvalidations;
    Counter &stSharerInvalidations;
    Counter &stEvictNotifies;
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_FILTERDIRSLICE_HH
