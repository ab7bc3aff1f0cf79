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
#include <unordered_map>
#include <vector>

#include "mem/CacheArray.hh"
#include "mem/MemNet.hh"
#include "mem/Messages.hh"
#include "protocols/ProtocolFactory.hh"
#include "sim/SmallFunction.hh"
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
    /** dma-get fills flow through the NUCA slice (GM includes the
     *  caches, Fig. 1), so DMA re-reads hit on-chip. */
    bool dmaFillsL2 = true;
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

    StatGroup &statGroup() { return stats; }
    const StatGroup &statGroup() const { return stats; }

    /** Test hooks. */
    struct EntrySnapshot
    {
        DirState state;
        CoreId owner;
        std::uint64_t sharers;
    };
    std::optional<EntrySnapshot> peekEntry(Addr line_addr) const;
    bool lineBusy(Addr line_addr) const
    { return busy.count(lineAlign(line_addr)) != 0; }
    std::uint64_t l2ValidLines() const { return l2.validLines(); }

  private:
    struct DirEntry
    {
        DirState state = DirState::Excl;
        CoreId owner = invalidCore;
        std::uint64_t sharers = 0;  ///< bitmask, excludes owner
    };

    struct L2Line
    {
        bool dirty = false;
        LineData data{};
    };

    enum class TxnKind : std::uint8_t { Request, Recall };

    struct Txn
    {
        TxnKind kind = TxnKind::Request;
        Tick startedAt = 0;  ///< for the txnLatency histogram
        Message req;
        std::vector<Message> queued;
        std::uint32_t pendingAcks = 0;
        bool wantData = false;
        bool haveData = false;
        bool dataDirty = false;
        LineData data{};
        /** Staging slot for a scheduled L2/WB-buffer fill, written at
         *  schedule time so the fill closure capture stays
         *  pointer-sized (snapshot semantics are preserved: the
         *  closure copies fill into data at fire time, exactly like
         *  the old by-value capture did). */
        LineData fill{};
        /** Runs when acks are in and data (if wanted) is present. */
        SmallFunction<void()> onComplete;
        /** Response sent; waiting for the requestor's Unblock. */
        bool awaitingUnblock = false;
    };

    /**
     * Transactions are pooled: slots are recycled LIFO and keep
     * their queued-request capacity, so steady state allocates
     * nothing per transaction. Closures may capture the Txn* — the
     * address is stable until finishTxn() releases the slot.
     */
    Txn *acquireTxn();
    void releaseTxn(Txn *t);

    void startTxn(const Message &req);
    void dispatch(Addr la);
    void finishTxn(Addr la);
    void checkDone(Addr la);
    void checkDone(Txn &t);
    void onUnblock(const Message &msg);

    void handleGetS(Addr la, Txn &t);
    void handleGetX(Addr la, Txn &t);
    void handleUpdX(Addr la, Txn &t);
    void handlePutM(Addr la, Txn &t);
    void handlePutShared(Addr la, Txn &t);
    void handleIfetch(Addr la, Txn &t);
    void handleDmaRead(Addr la, Txn &t);
    void handleDmaWrite(Addr la, Txn &t);

    void onAck(const Message &msg);
    void onFwdData(const Message &msg);
    void onMemResp(const Message &msg);

    /**
     * Obtain the line's data from L2 or memory; when it arrives the
     * transaction's data fields are filled and checkDone() runs.
     */
    void fetchData(Addr la, TrafficClass cls);

    /** Insert into L2, writing back any dirty victim. */
    void l2Insert(Addr la, const LineData &d, bool dirty);

    /**
     * Reserve a directory entry slot for @p la and install @p e,
     * recalling a victim entry's L1 copies as an independent
     * transaction if one must be evicted.
     * @return false if every candidate way is pinned (caller retries)
     */
    bool allocEntry(Addr la, DirEntry e);

    void sendInv(CoreId target, Addr la, CoreId requestor,
                 TrafficClass cls);
    /** Push the post-write line to a sharer (update-based). */
    void sendUpdate(CoreId target, Addr la, CoreId requestor,
                    const LineData &d, TrafficClass cls);
    void respond(CoreId core, Endpoint ep, MsgType t, Addr la,
                 const LineData *d, TrafficClass cls,
                 std::uint64_t aux = 0);

    static std::uint64_t bit(CoreId c)
    { return std::uint64_t(1) << c; }

    MemNet &net;
    CoreId tile;
    const CoherenceProtocol &proto;
    DirSliceParams p;
    CacheArray<L2Line> l2;
    CacheArray<DirEntry> dir;
    std::unordered_map<Addr, Txn *> busy;
    std::vector<std::unique_ptr<Txn>> txnStore;
    std::vector<Txn *> txnFree;
    /** Lines with a MemWrite in flight to the memory controller; a
     *  later MemRead could overtake the (larger) write packet, so
     *  reads are served from this buffer instead. */
    std::unordered_map<Addr, std::pair<LineData, std::uint32_t>>
        memWb;
    StatGroup stats;
    /** Hot-path counters, resolved once at construction (the
     *  string-keyed map is registration/export only). */
    Counter &stGetS;
    Counter &stGetX;
    Counter &stUpdX;
    Counter &stPutM;
    Counter &stPutS;
    Counter &stPutE;
    Counter &stIfetch;
    Counter &stDmaRead;
    Counter &stDmaWrite;
    Counter &stQueuedRequests;
    Counter &stFwdGetS;
    Counter &stFwdGetX;
    Counter &stInvalidationsSent;
    Counter &stUpdatesSent;
    Counter &stL2Hits;
    Counter &stL2Misses;
    Counter &stL2DirtyEvictions;
    Counter &stMemWbForwards;
    Counter &stMemWriteAcks;
    Counter &stAllocRetries;
    Counter &stRecalls;
    Counter &stStalePuts;
    /** Start-to-finish latency of every directory transaction. */
    Histogram &txnLatency;
    /** Concurrent blocked-line transactions, sampled on txn
     *  start/finish (mirrors the L1 mshrOccupancy pattern). */
    Histogram &txnOccupancy;
    void sampleTxnOccupancy()
    { txnOccupancy.sample(busy.size()); }
};

} // namespace spmcoh

#endif // SPMCOH_MEM_DIRECTORYSLICE_HH
