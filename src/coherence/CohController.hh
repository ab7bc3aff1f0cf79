/**
 * @file
 * Per-core controller of the SPM coherence protocol (Sec. 3).
 *
 * Owns the core's SPMDir and filter, executes the guarded-access
 * casuistic of Fig. 5 together with the FilterDir slices, performs
 * the mapping-time filter invalidation of Fig. 6a, and serves plain
 * remote SPM accesses (every core can address any SPM, Sec. 2.1).
 *
 * In ideal mode (Fig. 7 baseline) the same API is served by the
 * global Oracle with zero lookup latency and zero tracking traffic.
 */

#ifndef SPMCOH_COHERENCE_COHCONTROLLER_HH
#define SPMCOH_COHERENCE_COHCONTROLLER_HH

#include <cstdint>

#include "coherence/CohFabric.hh"
#include "coherence/Filter.hh"
#include "coherence/SpmDir.hh"
#include "mem/MemNet.hh"
#include "protocols/ProtocolFactory.hh"
#include "spm/AddressMap.hh"
#include "spm/Dmac.hh"
#include "spm/Spm.hh"
#include "sim/SlotTable.hh"
#include "sim/SmallFunction.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** Controller configuration. */
struct CohParams
{
    std::uint32_t spmDirEntries = 32;
    std::uint32_t filterEntries = 48;
    Tick lookupLatency = 1;  ///< parallel SPMDir + filter CAM lookup
};

/** Outcome of the synchronous part of a guarded access. */
struct GuardProbe
{
    enum class Kind : std::uint8_t
    {
        UseCache,   ///< not mapped (filter hit / oracle miss)
        LocalSpm,   ///< mapped in the local SPM (Fig. 5b)
        Pending,    ///< filter missed; resolveGuarded() must run
    };
    Kind kind = Kind::UseCache;
    Addr spmAddr = 0;   ///< diverted address when LocalSpm
    Tick extraLat = 0;  ///< cycles to charge before data is usable
};

/** Per-core SPM coherence controller. */
class CohController
{
  public:
    /** (served_by_spm, loaded_value) */
    using ResolveCb = SmallFunction<void(bool, std::uint64_t)>;

    /** @param proto_ protocol whose Fig. 5 guard table routes the
     *  guarded-access dispatch (default: the default protocol). */
    CohController(MemNet &net_, CohFabric &fab_, const AddressMap &amap_,
                  Spm &spm_, Dmac &dmac_, CoreId core_,
                  const CohParams &p_, const std::string &name,
                  const CoherenceProtocol &proto_ =
                      ProtocolFactory::defaultProtocol());

    /** Program the chip-wide buffer decomposition registers. */
    void setBufferConfig(std::uint32_t log2_bytes);

    /**
     * Record that SPM buffer @p idx now maps the chunk at @p gm_base
     * and run the Fig. 6a filter invalidation. The mapping is not
     * usable until @p dma_tag quiesces (a token is pinned on it).
     */
    void mapBuffer(std::uint32_t idx, Addr gm_base,
                   std::uint32_t dma_tag);

    /** Drop buffer @p idx's mapping (loop epilogue). */
    void unmapBuffer(std::uint32_t idx);

    /**
     * Synchronous half of a guarded access: parallel SPMDir + filter
     * lookup (1 cycle), or oracle consultation in ideal mode.
     */
    GuardProbe probeGuarded(Addr addr, bool is_write);

    /**
     * Asynchronous half: filter miss (Fig. 5c/5d) or ideal-mode
     * remote hit. Must be invoked at the current tick.
     */
    void resolveGuarded(Addr addr, std::uint8_t size, bool is_write,
                        std::uint64_t wdata, ResolveCb cb);

    /** Plain (non-guarded) access to a remote SPM over the mesh. */
    void remoteSpmAccess(Addr addr, std::uint8_t size, bool is_write,
                         std::uint64_t wdata, ResolveCb cb);

    /** MemNet delivery entry point (Endpoint::Coh). */
    void handle(const Message &msg);

    /** Account the CAM energy of @p n broadcast probes. */
    void countProbes(std::uint64_t n) { stSpmdirProbes += n; }

    Spm &spmRef() { return spm; }
    Filter &filterRef() { return filter; }
    SpmDir &spmDirRef() { return spmDir; }

    StatGroup &statGroup() { return stats; }
    const StatGroup &statGroup() const { return stats; }

  private:
    struct PendingReq
    {
        Addr addr = 0;
        bool isWrite = false;
        Tick issuedAt = 0;  ///< for the resolveLatency histogram
        ResolveCb cb;
    };

    /** Record @p req as pending under a fresh id; returns the id. */
    std::uint64_t trackPending(PendingReq req);
    /** Remove and return pending @p id, sampling the histograms. */
    PendingReq untrackPending(std::uint64_t id, const char *what);

    void onCheckAck(const Message &msg);
    void onRemoteData(const Message &msg, bool is_store_ack);
    void onInvalFwd(const Message &msg);
    void onSpmDirect(const Message &msg);

    MemNet &net;
    CohFabric &fab;
    const AddressMap &amap;
    Spm &spm;
    Dmac &dmac;
    CoreId core;
    const CoherenceProtocol &proto;
    CohParams p;
    SpmDir spmDir;
    Filter filter;
    /** Outstanding asynchronous requests, keyed by generation-tagged
     *  slot ids that flow through message aux fields. */
    SlotTable<PendingReq> pending;
    StatGroup stats;
    /** Hot-path counters, resolved once at construction. */
    Counter &stGuardedProbes;
    Counter &stSpmdirLookups;
    Counter &stFilterLookups;
    Counter &stSpmdirHits;
    Counter &stFilterHits;
    Counter &stFilterMisses;
    Counter &stSpmdirProbes;
    Counter &stFilterChecksSent;
    Counter &stRemoteSpmRequests;
    Counter &stFilterInserts;
    Counter &stFilterEvictions;
    Counter &stCheckNacks;
    Counter &stRemoteSpmServed;
    Counter &stFilterInvalsReceived;
    Counter &stMapInvalsDone;
    Counter &stMappings;
    Counter &stConfigWrites;
    /** Issue-to-resolution latency of asynchronous guarded / remote
     *  SPM requests (the Fig. 5c/5d paths). */
    Histogram &resolveLatency;
    /** Outstanding asynchronous requests, sampled on track/untrack
     *  (mirrors the L1 mshrOccupancy pattern). */
    Histogram &pendingOccupancy;
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_COHCONTROLLER_HH
