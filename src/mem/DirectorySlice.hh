/**
 * @file
 * One tile's share of the shared NUCA L2 plus the distributed MOESI
 * cache directory (Table 1: NUCA 16MB sliced 256KB/core, 15 cycles,
 * 16-way; real MOESI with blocking states; 4-way directory, 64K
 * entries total).
 *
 * The slice is the ordering point for its lines: one transaction per
 * line at a time, later requests queue behind it (blocking states).
 * Owner data always returns through the slice, which makes every
 * transaction terminate with a single Data* message at the requestor
 * (docs/architecture.md, "How a memory access flows").
 *
 * Coherent DMA (Sec. 2.1): DmaRead snapshots the freshest copy
 * (forwarded from an owner if one exists) without disturbing cache
 * states; DmaWrite invalidates every cached copy and updates main
 * memory.
 */

#ifndef SPMCOH_MEM_DIRECTORYSLICE_HH
#define SPMCOH_MEM_DIRECTORYSLICE_HH

#include <memory>
#include <vector>

#include "mem/CacheArray.hh"
#include "mem/MemNet.hh"
#include "mem/Messages.hh"
#include "protocols/ProtocolFactory.hh"
#include "sim/LineMap.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** Directory-visible line state. */
enum class DirState : std::uint8_t
{
    Excl,    ///< one L1 has E or M; that copy is authoritative
    Shared,  ///< one or more S copies; L2/memory data is valid
    Owned,   ///< one L1 has O (dirty) plus possible S sharers
};

/** Directory slice configuration (per slice). */
struct DirSliceParams
{
    std::uint32_t l2SizeBytes = 256 * 1024;
    std::uint32_t l2Ways = 16;
    Tick l2Latency = 15;
    /** Per slice; 2K x 64 slices = 128K entries, 2x the aggregate L1
     *  capacity so precise residency tracking does not thrash. */
    std::uint32_t dirEntries = 2048;
    std::uint32_t dirWays = 4;
    Tick dirLatency = 2;
    Tick retryDelay = 64;  ///< backoff when a set is fully pinned
};

/** L2 slice + directory slice controller for one tile. */
class DirectorySlice
{
  public:
    /** @param proto_ protocol whose directory policy hooks drive
     *  this slice (default: the registered default protocol). */
    DirectorySlice(MemNet &net_, CoreId tile_, const DirSliceParams &p_,
                   const std::string &name,
                   const CoherenceProtocol &proto_ =
                       ProtocolFactory::defaultProtocol());

    /** MemNet delivery entry point. */
    void handle(const Message &msg);

    const StatGroup &statGroup() const { return stats; }

    /** Test hooks. */
    struct EntrySnapshot
    {
        DirState state;
        CoreId owner;
        std::uint64_t sharers;
    };
    std::optional<EntrySnapshot> peekEntry(Addr line_addr) const;
    /** Valid L2 lines; each holds one LinePool slot. */
    std::uint64_t l2Lines() const { return l2.validLines(); }
    /** L2 and directory sets that have storage. */
    std::size_t setBlocks() const { return l2.blocks() + dir.blocks(); }

  private:
    struct DirEntry
    {
        DirState state = DirState::Excl;
        CoreId owner = invalidCore;
        std::uint64_t sharers = 0;  ///< bitmask, excludes owner
    };

    /** The line's payload is the LinePool slot @c slot. */
    struct L2Line
    {
        std::uint32_t slot = 0;
        bool dirty = false;
    };

    /** How a transaction ends once its acks and data are in
     *  (docs/architecture.md, "Directory completion steps"). */
    enum class Done : std::uint8_t
    {
        None,         ///< nothing armed yet (or already run)
        Grant,        ///< send Txn::grant with the data, await Unblock
        Exclusive,    ///< requestor becomes the sole owner, then Grant
        OwnerRead,    ///< fold a forwarded read into the entry, then Grant
        ApplyUpdate,  ///< write the word, push it to sharers, then Grant
        DmaRead,      ///< return the snapshot to the DMAC and finish
        DmaWrite,     ///< write memory, ack the DMAC and finish
        Recall,       ///< absorb a dirty recalled copy and finish
    };

    struct Txn
    {
        Addr la = 0;         ///< the blocked line
        Tick startedAt = 0;  ///< for the txnLatency histogram
        Message req;
        /** Requests waiting for the line: a ring of queuedCap slots
         *  holding queuedCount entries from queuedHead, oldest first.
         *  Bare indices keep the Txn no larger than a vector did. */
        std::unique_ptr<Message[]> queued;
        std::uint32_t queuedCap = 0;
        std::uint32_t queuedHead = 0;
        std::uint32_t queuedCount = 0;
        std::uint32_t pendingAcks = 0;
        bool wantData = false;
        bool haveData = false;
        bool dataDirty = false;
        /** Response awaiting Unblock; set by every Grant. */
        bool awaitingUnblock = false;
        Done done = Done::None;
        MsgType grant = MsgType::DataS;  ///< response type of Grant
        LineData data{};
        /** Staging slot for a scheduled L2/WB-buffer fill, copied
         *  into data when the fill fires. */
        LineData fill{};
    };

    /**
     * Transactions are pooled: slots are recycled LIFO and keep
     * their queued-request capacity, so steady state allocates
     * nothing per transaction. Scheduled closures capture the Txn*;
     * the address is stable until finishTxn() releases the slot.
     */
    Txn &acquireTxn();
    /** Block @p la on @p t with fresh per-request state. */
    void openTxn(Txn &t, Addr la);
    void startTxn(Txn &t, const Message &req);
    void dispatch(Txn &t);
    /** Run @p t's completion step once its acks and data are in. */
    void checkDone(Txn &t);
    void complete(Txn &t, Done step);
    /** Queue @p msg behind @p t, doubling the ring when it is full. */
    void enqueue(Txn &t, const Message &msg);
    /** Unblock the line; the next queued request reuses the slot. */
    void finishTxn(Txn &t);
    void onUnblock(const Message &msg);

    /** Track the untracked line as the requestor's (Excl) and arm a
     *  Grant of @p grant; retries later when every way is pinned. */
    void grantNewEntry(Txn &t, MsgType grant);
    void handleGetS(Txn &t);
    void handleGetX(Txn &t);
    void handleUpdX(Txn &t);
    void handlePutM(Txn &t);
    void handlePutShared(Txn &t);
    void handleIfetch(Txn &t);
    void handleDmaRead(Txn &t);
    void handleDmaWrite(Txn &t);

    void onAck(const Message &msg);
    void onFwdData(const Message &msg);
    void onMemResp(const Message &msg);

    /**
     * Obtain the line's data from the writeback buffer, L2 or
     * memory; when it arrives the transaction's data fields are
     * filled and checkDone() runs.
     */
    void fetchData(Txn &t, TrafficClass cls);

    /** Insert into L2, writing back any dirty victim; the new line
     *  takes the victim's payload slot, else a LinePool slot. */
    void l2Insert(Addr la, const LineData &d, bool dirty);

    /**
     * Reserve a directory entry slot for @p la and install @p e,
     * recalling a victim entry's L1 copies as an independent
     * transaction if one must be evicted.
     * @return false if every candidate way is pinned (caller retries)
     */
    bool allocEntry(Addr la, DirEntry e);

    /** Forward @p t's request to the line's owner; its data comes
     *  back through this slice (FwdAckData). */
    void sendFwd(Txn &t, MsgType ty, CoreId owner, TrafficClass cls);
    /** Owner and sharers of @p e as one core mask. */
    static std::uint64_t holders(const DirEntry &e);
    /** Send an Inv for @p t's line to every core in @p targets,
     *  lowest id first; @p t awaits one ack per Inv. */
    void invalidateCopies(Txn &t, std::uint64_t targets,
                          CoreId requestor);
    /** Push the post-write line to a sharer (update-based). */
    void sendUpdate(CoreId target, Addr la, CoreId requestor,
                    const LineData &d, TrafficClass cls);
    void respond(CoreId core, Endpoint ep, MsgType t, Addr la,
                 const LineData *d, TrafficClass cls,
                 std::uint64_t aux = 0);

    MemNet &net;
    CoreId tile;
    /** Memory controller this slice reads and writes lines through
     *  (MemNet::nearestMemCtrl, resolved once). */
    std::uint32_t memCtrl;
    const CoherenceProtocol &proto;
    DirSliceParams p;
    CacheArray<L2Line> l2;
    /** Payloads of the valid L2 lines (shared with the L1s). A line
     *  installed into an invalid way takes a slot there; DmaWrite
     *  frees the slot of the line it drops. */
    LinePool &pool;
    CacheArray<DirEntry> dir;
    /** In-flight transaction of every blocked line. */
    LineMap<Txn *> busy;
    std::vector<std::unique_ptr<Txn>> txnStore;
    std::vector<Txn *> txnFree;
    /** Newest data of a line with MemWrites in flight. */
    struct MemWb
    {
        LineData data{};
        std::uint32_t pending = 0;  ///< MemWriteAcks outstanding
    };
    /** Lines with a MemWrite in flight to the memory controller; a
     *  later MemRead could overtake the (larger) write packet, so
     *  reads are served from this buffer instead. */
    LineMap<MemWb> memWb;
    StatGroup stats;
    Counter stGetS{stats, "getS"};
    Counter stGetX{stats, "getX"};
    Counter stUpdX{stats, "updX"};
    Counter stPutM{stats, "putM"};
    Counter stPutS{stats, "putS"};
    Counter stPutE{stats, "putE"};
    Counter stIfetch{stats, "ifetch"};
    Counter stDmaRead{stats, "dmaRead"};
    Counter stDmaWrite{stats, "dmaWrite"};
    Counter stQueuedRequests{stats, "queuedRequests"};
    Counter stFwdGetS{stats, "fwdGetS"};
    Counter stFwdGetX{stats, "fwdGetX"};
    Counter stInvalidationsSent{stats, "invalidationsSent"};
    Counter stUpdatesSent{stats, "updatesSent"};
    Counter stL2Hits{stats, "l2Hits"};
    Counter stL2Misses{stats, "l2Misses"};
    Counter stL2DirtyEvictions{stats, "l2DirtyEvictions"};
    Counter stMemWbForwards{stats, "memWbForwards"};
    Counter stMemWriteAcks{stats, "memWriteAcks"};
    Counter stAllocRetries{stats, "allocRetries"};
    Counter stRecalls{stats, "recalls"};
    Counter stStalePuts{stats, "stalePuts"};
    /** Start-to-finish latency of every directory transaction. */
    Histogram txnLatency{stats, "txnLatency",
                         {16, 32, 64, 128, 256, 512, 1024, 2048}};
    /** Concurrent blocked-line transactions, sampled on txn
     *  start/finish (mirrors the L1 mshrOccupancy pattern). */
    Histogram txnOccupancy{stats, "txnOccupancy",
                           {1, 2, 4, 8, 16, 24, 32, 48}};
    void sampleTxnOccupancy()
    { txnOccupancy.sample(busy.size()); }
};

} // namespace spmcoh

#endif // SPMCOH_MEM_DIRECTORYSLICE_HH
