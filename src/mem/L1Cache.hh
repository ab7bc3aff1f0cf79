/**
 * @file
 * L1 cache controller (data or instruction).
 *
 * Timing/coherence model:
 *  - Every protocol decision is a lookup in the CoherenceProtocol
 *    table the cache was built with (src/protocols/): which accesses
 *    hit and the state they leave, which request a miss issues, how
 *    forwards and replacements transition, and which states are dirty
 *    (their Replace edge writes the line back).
 *  - Accesses the table marks as hits complete synchronously through
 *    tryLoad/tryStore, so the core can consume long hit runs without
 *    event-queue round trips. One step, perform(), applies a hit;
 *    it also completes inline accesses and drained MSHR targets.
 *  - Everything else (misses, upgrades, update-based stores)
 *    opens an MSHR (allocMshr) and sends its request (sendRequest),
 *    driving a blocking-directory transaction over the mesh.
 *  - Evicted lines sit in a writeback buffer until the directory
 *    acknowledges the Put, and still service forwards/invalidations,
 *    which closes the classic eviction/forward race.
 *
 * In icache mode the cache is read-only, fills with untracked
 * IfetchGet requests, and never participates in coherence.
 */

#ifndef SPMCOH_MEM_L1CACHE_HH
#define SPMCOH_MEM_L1CACHE_HH

#include <functional>
#include <optional>
#include <vector>

#include "mem/CacheArray.hh"
#include "mem/MemNet.hh"
#include "mem/Messages.hh"
#include "mem/Mshr.hh"
#include "mem/StridePrefetcher.hh"
#include "protocols/ProtocolFactory.hh"
#include "sim/LineMap.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** L1 configuration (Table 1 defaults). */
struct L1Params
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 4;
    Tick hitLatency = 2;
    std::uint32_t mshrs = 48;
    std::uint32_t maxPrefetchInFlight = 32;
    PrefetcherParams prefetcher;
};

/** One L1 cache. */
class L1Cache
{
  public:
    /** @param proto_ protocol table driving this cache's
     *  transitions (default: the registered default protocol). */
    L1Cache(MemNet &net_, CoreId core_, bool icache_,
            const L1Params &p_, const std::string &name,
            const CoherenceProtocol &proto_ =
                ProtocolFactory::defaultProtocol());

    /**
     * Synchronous load: completes iff the line is resident.
     * @param at core-local issue tick (>= now) for prefetch timing
     * @return loaded value, or nullopt on miss (use startLoad)
     */
    std::optional<std::uint64_t>
    tryLoad(Addr addr, std::uint8_t size, Tick at, std::uint32_t ref_id,
            Tick &lat);

    /**
     * Synchronous store: completes iff the line is resident in a
     * state whose Store edge is a hit (E or M classically).
     * @return true if performed
     */
    bool
    tryStore(Addr addr, std::uint8_t size, std::uint64_t wdata, Tick at,
             std::uint32_t ref_id, Tick &lat);

    /**
     * Start a miss-capable load at the current tick.
     * @return false if no MSHR is available (retry when notified)
     */
    bool
    startLoad(Addr addr, std::uint8_t size,
              std::function<void(std::uint64_t)> on_done);

    /** Start a miss-capable store at the current tick. */
    bool
    startStore(Addr addr, std::uint8_t size, std::uint64_t wdata,
               std::function<void(std::uint64_t)> on_done);

    /** Issue a hardware prefetch for a line (best effort). */
    void issuePrefetch(Addr line_addr);

    /** Called by MemNet on message delivery. */
    void handle(const Message &msg);

    /** Register a callback fired whenever an MSHR frees up. */
    void
    setMshrFreeCallback(std::function<void()> cb)
    {
        mshrFreeCb = std::move(cb);
    }

    bool mshrFull() const { return mshr.full(); }
    Tick hitLatency() const { return p.hitLatency; }

    const StatGroup &statGroup() const { return stats; }

    /** Peek for tests: is the line valid, and in which state? A
     *  resident line is never PState::I. */
    std::optional<PState>
    peekState(Addr addr) const
    {
        const Line *l = array.peek(addr);
        return l ? std::optional<PState>(l->state) : std::nullopt;
    }
    /** Valid lines; each holds one LinePool slot (tests). */
    std::uint64_t residentLines() const { return array.validLines(); }
    /** Sets that have storage (tests). */
    std::size_t setBlocks() const { return array.blocks(); }

  private:
    /** A resident line; its payload is the LinePool slot @c slot. */
    struct Line
    {
        PState state = PState::S;
        bool prefetched = false;
        bool used = true;
        std::uint32_t slot = 0;
    };

    struct WbEntry
    {
        PState state = PState::M;
        /** Puts in flight for this line; freed when all are acked.
         *  A line can be re-fetched and re-evicted before the first
         *  PutAck returns, so this can exceed one. */
        std::uint32_t pendingPuts = 0;
        LineData data{};
    };

    /** Common sync hit path; nullopt means caller must go async. */
    std::optional<std::uint64_t>
    tryAccess(Addr addr, std::uint8_t size, bool is_write,
              std::uint64_t wdata, Tick at, std::uint32_t ref_id,
              Tick &lat);

    /**
     * Complete an access on a resident line if its Load/Store edge is
     * a hit: apply it and move to the edge's next state.
     * @return the loaded value (0 for a store), or nullopt when the
     *  edge issues a request instead
     */
    std::optional<std::uint64_t>
    perform(Line &line, Addr addr, std::uint8_t size, bool is_write,
            std::uint64_t wdata);

    bool
    startAccess(Addr addr, std::uint8_t size, bool is_write,
                std::uint64_t wdata,
                std::function<void(std::uint64_t)> on_done);

    /** Open an MSHR for @p line_addr. @pre !mshr.full() */
    MshrEntry &allocMshr(Addr line_addr, bool want_exclusive,
                         bool prefetch);
    /** Send @p e's request: IfetchGet on the icache, GetS for a read
     *  or prefetch, and for a store whatever the table's Store edge
     *  issues (UpdX, or a GetX that ships the line when dirty). */
    void sendRequest(const MshrEntry &e);
    /** True when the Replace edge of @p s writes the line back. */
    bool isDirty(PState s) const;

    void onFill(const Message &msg);
    void onFwd(const Message &msg);
    void onInv(const Message &msg);
    void onUpdate(const Message &msg);
    void onDmaFwd(const Message &msg);
    /** @param first_write_done the leading write target was already
     *  applied at the directory (update-based UpdData fill). */
    void processTargets(Addr line_addr,
                        bool first_write_done = false);
    void installLine(Addr line_addr, PState st, const LineData &d,
                     bool prefetch_fill);
    /** Write @p victim back (or drop it) and free its slot. */
    void evict(Addr line_addr, const Line &victim);
    /** Send @p t for @p requestor to the line's home slice; a
     *  non-null @p d encloses the line. */
    void sendToDir(MsgType t, Addr line_addr, TrafficClass cls,
                   CoreId requestor, const LineData *d = nullptr,
                   bool dirty = false);
    /** Ship one store word to the home slice (update-based). */
    void sendUpdX(Addr line_addr, const MshrTarget &t);
    void trainPrefetcher(std::uint32_t ref_id, Addr addr, Tick at);
    /** Record the post-transition MSHR file occupancy. */
    void sampleMshrOccupancy() { mshrOccupancy.sample(mshr.used()); }

    MemNet &net;
    CoreId core;
    bool icache;
    const CoherenceProtocol &proto;
    L1Params p;
    CacheArray<Line> array;
    /** Payloads of the resident lines (shared with the L2 slices). A
     *  fill into an invalid way takes a slot, a fill that evicts takes
     *  the victim's, and an invalidation frees one. */
    LinePool &pool;
    MshrFile mshr;
    LineMap<WbEntry> wbBuffer;
    StridePrefetcher prefetcher;
    /** trainPrefetcher's candidate buffer, kept for its capacity. */
    std::vector<Addr> prefetchCands;
    std::uint32_t prefetchesInFlight = 0;
    std::function<void()> mshrFreeCb;
    StatGroup stats;
    Counter stAccesses{stats, "accesses"};
    Counter stHits{stats, "hits"};
    Counter stMisses{stats, "misses"};
    Counter stFills{stats, "fills"};
    Counter stEvictions{stats, "evictions"};
    Counter stDirtyWritebacks{stats, "dirtyWritebacks"};
    Counter stMshrMerges{stats, "mshrMerges"};
    Counter stMshrFullRejects{stats, "mshrFullRejects"};
    Counter stUpgrades{stats, "upgrades"};
    Counter stPrefetchesIssued{stats, "prefetchesIssued"};
    Counter stUsefulPrefetches{stats, "usefulPrefetches"};
    Counter stWastedPrefetches{stats, "wastedPrefetches"};
    Counter stStalePutAcks{stats, "stalePutAcks"};
    Counter stForwardsServiced{stats, "forwardsServiced"};
    Counter stForwardsFromWbBuffer{stats, "forwardsFromWbBuffer"};
    Counter stInvalidationsReceived{stats, "invalidationsReceived"};
    Counter stUpdatesReceived{stats, "updatesReceived"};
    Counter stStaleUpdates{stats, "staleUpdates"};
    Counter stUpdXSent{stats, "updXSent"};
    /**
     * MSHR file occupancy distribution, sampled after every
     * allocate and release (ROADMAP histogram-coverage item).
     */
    Histogram mshrOccupancy{stats, "mshrOccupancy",
                            {1, 2, 4, 8, 16, 24, 32, 48}};
};

} // namespace spmcoh

#endif // SPMCOH_MEM_L1CACHE_HH
