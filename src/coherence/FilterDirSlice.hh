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
#include <utility>
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

    /** The next step of an operation (docs/architecture.md,
     *  "FilterDir operation steps"). */
    enum class Step : std::uint8_t
    {
        Probe,    ///< evaluate the SPMDirs at probe arrival
        Nack,     ///< a remote SPM served: NACK, release the base
        Install,  ///< nobody maps the base: install it and ACK
        Drain,    ///< wait for the victim slot's sharers to drop it
        Inval,    ///< wait for the mapped base's sharers to drop it
    };

    /** A request waiting for its lookup or for its base to be
     *  released: the base it maps to and a pooled copy of it. */
    struct Pending
    {
        Addr base = 0;
        Message *msg = nullptr;
    };
    /** Requests in arrival order. Batches move between events and
     *  are recycled, so their capacity is kept. */
    using Batch = std::vector<Pending>;

    /**
     * One multi-step operation: a check that missed the CAM and
     * broadcasts (Probe, then Nack or Install, maybe Drain), or a
     * map-invalidation waiting for its sharers (Inval). A check that
     * hits or queues needs no record. The id rides in the
     * FilterInvalFwd aux field and comes back in the ack.
     */
    struct Op
    {
        std::uint64_t id = 0;
        Step step = Step::Probe;
        Addr base = 0;
        Addr addr = 0;                ///< the check's address
        CoreId requestor = invalidCore;
        bool isWrite = false;         ///< the check's direction
        std::uint64_t aux = 0;        ///< passthrough (req id / tag)
        std::uint64_t wdata = 0;      ///< the check's store word
        std::uint32_t victim = 0;     ///< Drain: slot being recycled
        std::uint32_t pendingAcks = 0;
        /** Requests for the base parked behind the broadcast, in
         *  arrival order. A recycled record keeps the queue's
         *  capacity. */
        Batch waiting;
    };

    /** Every request entering the slice, delivered or re-entered:
     *  count it and take its base; park it if the base is busy.
     *  @return true if it goes on to its lookup. */
    bool enter(Pending &r);
    /** Enter the requests parked on a concluded op again, in order;
     *  the ones not parked share one lookup event. */
    void reenter(Batch &batch);
    /** A request's lookup, one lookupLatency after it entered. */
    void lookup(const Pending &r);
    /** A check's lookup: ACK on a CAM hit, else start a broadcast. */
    void checkStep(Addr base, const Message &req);
    /** A map-invalidation's lookup: drop the base, invalidate its
     *  sharers (Fig. 6a). */
    void invalStep(Addr base, const Message &req);
    /** Per-base serialization: the op broadcasting for @p base, or
     *  nullptr. */
    Op *busyOp(Addr base);
    void park(Op &op, const Pending &r);
    /** An empty batch, reusing a recycled one's capacity. */
    Batch takeBatch();
    void recycle(Batch &batch);
    void onEvictNotify(const Message &msg);
    void onFwdAck(const Message &msg);

    /** Claim a record for @p requestor's operation on @p base. */
    Op &openOp(Step step, Addr base, CoreId requestor,
               std::uint64_t aux);
    /** Run @p op's @p step after @p delay. */
    void arm(Op &op, Step step, Tick delay);
    void run(std::uint64_t id);
    /** Broadcast evaluation, aggregated (docs/architecture.md,
     *  "Aggregated FilterDir broadcast"). */
    void probe(Op &op);
    /** Install the base, draining a victim slot first if full. */
    void install(Op &op);
    void finishInstall(Op &op, std::uint32_t slot);
    /** Send each of @p sharers a FilterInvalFwd that @p op awaits. */
    void invalidateSharers(Op &op, Addr base, std::uint64_t sharers);
    /** Reply to the requestor, release the base and @p op, and
     *  re-enter the requests parked on the base as one batch. */
    void conclude(Op &op, MsgType reply, Addr addr);

    void sendToCore(CoreId c, MsgType t, Addr addr, std::uint64_t aux);

    std::int32_t findSlot(Addr base, SlotState st) const;
    /** Lowest-index slot in state @p st, or -1. */
    std::int32_t firstSlot(SlotState st) const;

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
     * Bases with a broadcast in flight, each with its op id. Checks
     * and map-invalidations for the same base queue behind it;
     * without this serialization a mapping racing with a broadcast's
     * conclusion could leave a stale "not mapped" verdict in a filter
     * (Sec. 3.3 invariant). A handful are in flight at once, so a
     * linear scan over a flat list beats a map.
     */
    std::vector<std::pair<Addr, std::uint64_t>> busy;
    SlotTable<Op> ops;
    /** Empty batches kept for reuse. */
    std::vector<Batch> spareBatches;
    StatGroup stats;
    Counter stChecks{stats, "checks"};
    Counter stCheckHits{stats, "checkHits"};
    Counter stBroadcasts{stats, "broadcasts"};
    Counter stRemoteHits{stats, "remoteHits"};
    Counter stQueuedOps{stats, "queuedOps"};
    Counter stInserts{stats, "inserts"};
    Counter stInsertRetries{stats, "insertRetries"};
    Counter stEvictions{stats, "evictions"};
    Counter stMapInvalidations{stats, "mapInvalidations"};
    Counter stSharerInvalidations{stats, "sharerInvalidations"};
    Counter stEvictNotifies{stats, "evictNotifies"};
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_FILTERDIRSLICE_HH
