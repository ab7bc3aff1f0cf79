/**
 * @file
 * Out-of-order core timing model (Table 1: 6-wide OoO, ROB 160,
 * LQ/SQ 48/32, 3 Ld/St units, 13-cycle pipeline).
 *
 * The model is a windowed MLP simulator: the core consumes its op
 * stream in program order, completing cache/SPM hits inline (their
 * latency is hidden by the OoO engine) and issuing misses
 * asynchronously. It keeps running past outstanding misses until a
 * structural limit binds -- ROB reach (160 instructions past the
 * oldest incomplete memory op), LQ/SQ occupancy, or MSHRs -- which
 * reproduces the memory-level-parallelism behaviour that drives the
 * paper's evaluation. Store-to-load forwarding covers in-window RAW
 * dependences.
 *
 * Sec. 3.4 consistency support: a guarded access that diverts to the
 * SPM re-checks the LSQ with its new address after a short resolve
 * delay; a younger SPM access to the same address with a store
 * involved flushes the 13-stage pipeline.
 */

#ifndef SPMCOH_CPU_COREMODEL_HH
#define SPMCOH_CPU_COREMODEL_HH

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coherence/CohController.hh"
#include "cpu/MicroOp.hh"
#include "mem/L1Cache.hh"
#include "mem/Tlb.hh"
#include "spm/AddressMap.hh"
#include "spm/Dmac.hh"
#include "spm/Spm.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** System memory organization the core runs against. */
enum class SystemMode : std::uint8_t
{
    CacheOnly,    ///< baseline cache-based system (Sec. 5.4)
    HybridIdeal,  ///< hybrid memory, ideal coherence (Fig. 7 base)
    HybridProto,  ///< hybrid memory, proposed coherence protocol
};

/** Stable textual name, used by experiment specs and result sinks. */
inline const char *
systemModeName(SystemMode m)
{
    switch (m) {
      case SystemMode::CacheOnly:   return "cache";
      case SystemMode::HybridIdeal: return "hybrid-ideal";
      case SystemMode::HybridProto: return "hybrid-proto";
      default:                      return "?";
    }
}

/** Inverse of systemModeName(); nullopt on anything else. */
inline std::optional<SystemMode>
systemModeFromName(std::string_view name)
{
    if (name == "cache")
        return SystemMode::CacheOnly;
    if (name == "hybrid-ideal")
        return SystemMode::HybridIdeal;
    if (name == "hybrid-proto")
        return SystemMode::HybridProto;
    return std::nullopt;
}

/** Core configuration (Table 1 defaults). */
struct CoreParams
{
    std::uint32_t issueWidth = 6;
    std::uint32_t robEntries = 160;
    std::uint32_t lqEntries = 48;
    std::uint32_t sqEntries = 32;
    std::uint32_t lsUnits = 3;
    Tick flushPenalty = 13;     ///< pipeline depth (squash cost)
    Tick divertResolveDelay = 3; ///< guarded address late-resolve
    Tick codeFetchInterval = 2; ///< pacing of Ifetch footprint walks
};

/** One core's timing model. */
class CoreModel
{
  public:
    CoreModel(MemNet &net_, L1Cache &l1d_, L1Cache &l1i_, Tlb &tlb_,
              Spm &spm_, Dmac &dmac_, CohController &coh_,
              const AddressMap &amap_, CoreId core_, SystemMode mode_,
              const CoreParams &p_, const std::string &name);

    /**
     * Install the barrier hook (the Barrier op carrying the scope
     * metadata, on-release callback).
     */
    void
    setBarrierHook(
        std::function<void(const MicroOp &, std::function<void()>)> f)
    {
        barrierArrive = std::move(f);
    }

    /** Begin executing @p src (schedules the first run). */
    void start(OpSource *src);

    bool finished() const { return done; }
    Tick finishTick() const { return finishedAt; }

    /** Local tick at which the core last executed an instruction
     *  (System::run's progress check). */
    Tick lastInstructionTick() const { return lastInstrTick; }
    /** What an unfinished core waits on: the line of its oldest
     *  in-flight memory op, else the op it is blocked at. */
    std::string stallSummary() const;

    /** Cycles spent per phase (Fig. 9 breakdown). */
    std::uint64_t
    phaseCycles(ExecPhase ph) const
    {
        return phaseCyc[static_cast<std::size_t>(ph)];
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    /**
     * One in-flight memory op. Seqs in the window are consecutive
     * (retirement pops the front; a rolled-back allocation hands its
     * seq back), so a completion finds its record by offset.
     */
    struct WindowEntry
    {
        std::uint64_t seq;
        std::uint64_t instrNo;
        Addr addr;
        std::uint64_t value;    ///< store data (0 for a load)
        std::uint32_t refId;    ///< trains the prefetcher on write-through
        std::uint8_t size;
        bool isLoad;
        bool done;
    };

    /** An outstanding GM store waiting in the L1; younger loads of
     *  the same address and size forward from it. */
    struct FwdStore
    {
        std::uint64_t seq;
        Addr addr;
        std::uint8_t size;
    };

    /** An L1 access waiting for an MSHR; seq 0 is a write-through. */
    struct L1Retry
    {
        Addr addr;
        std::uint64_t wdata;
        std::uint64_t seq;
        std::uint32_t refId;    ///< the op's static reference id
        std::uint8_t size;
        bool isWrite;
    };

    struct PendingDivert
    {
        Tick resolveAt;
        Addr spmAddr;
        bool isWrite;
    };

    /** Outcome of probeMemOp: done inline, or the async issue path. */
    enum class Flavor : std::uint8_t { Inline, GmMiss, Guarded, RemoteSpm };

    /** Per-kernel attribution slots (exported by finish()). */
    enum KernelStat : std::uint8_t
    {
        KernelCycles, KernelGuarded, KernelDma, numKernelStats
    };

    void run();
    void wake();
    void scheduleRunAt(Tick t);
    /** @return true, with a run scheduled at localTick, while the
     *  local clock is ahead of the event queue. */
    bool clockAhead();
    void advance(Tick cycles);
    void chargeLsuSlot();
    bool windowBlocked();
    void retireCompleted();

    /** @return true if the op finished; false if waiting. */
    bool execLoadStore();
    Flavor probeMemOp();
    void accessLocalSpm(Addr spm_addr);
    /** @return false when no MSHR was available (retry later). */
    bool issueMemOp();
    /** @return false when no MSHR was available. */
    bool issueL1(const L1Retry &r);
    /** issueL1, or queue @p r for drainDeferred on MSHR free. */
    void issueOrDefer(const L1Retry &r);
    void drainDeferred();

    WindowEntry &windowEntry(std::uint64_t seq);
    void onGuardedResolved(std::uint64_t seq, bool by_spm);
    void onMemComplete(std::uint64_t seq);
    bool forwardLoad(Addr a, std::uint8_t sz) const;
    /** Drop @p seq from fwdStores, if it is there. */
    void dropFwdStore(std::uint64_t seq);

    void recordDivert(Addr spm_addr, bool is_write);
    void checkSquash(Addr spm_addr, bool is_write);
    std::uint64_t storeValue() const;

    void startCodeFetch(Addr addr, std::uint32_t bytes);
    void codeFetchStep(Addr cur, Addr end);

    void finish();

    MemNet &net;
    L1Cache &l1d;
    L1Cache &l1i;
    Tlb &tlb;
    Spm &spm;
    Dmac &dmac;
    CohController &coh;
    const AddressMap &amap;
    CoreId core;
    SystemMode mode;
    CoreParams p;

    OpSource *source = nullptr;
    MicroOp cur;
    bool haveCur = false;
    bool probed = false;      ///< cur already probed; ready to issue
    Flavor pendingFlavor = Flavor::GmMiss;
    bool barrierDone = false;

    Tick localTick = 0;
    Tick memCycleTick = 0;
    std::uint32_t memThisCycle = 0;
    std::uint64_t instrCount = 0;
    Tick lastInstrTick = 0;
    bool runScheduled = false;
    bool done = false;
    Tick finishedAt = 0;

    std::deque<WindowEntry> window;
    /** The window's incomplete GM stores (at most sqEntries), so a
     *  load's forwarding check scans the store queue, not the ROB. */
    std::vector<FwdStore> fwdStores;
    std::uint32_t pendingLoads = 0;
    std::uint32_t pendingStores = 0;
    std::uint64_t nextSeq = 1;
    std::vector<PendingDivert> diverts;
    std::deque<L1Retry> deferredL1;

    ExecPhase curPhase = ExecPhase::Work;
    std::uint64_t phaseCyc[numExecPhases] = {0, 0, 0};

    /**
     * Phase-graph accounting: the kernel named by the last
     * KernelMark op. Cycles (including blocked time), guarded
     * accesses and DMA commands are attributed to it and exported
     * as phase<K>Cycles / phase<K>Guarded / phase<K>Dma counters
     * when the core finishes.
     */
    std::int64_t curKernel = -1;
    Tick kernelStartTick = 0;
    std::vector<std::array<std::uint64_t, numKernelStats>> kernelStats;
    /** Close the current kernel's cycles and switch to @p id (-1:
     *  none). */
    void markKernel(std::int64_t id);
    void addKernelStat(KernelStat s, std::uint64_t n);

    std::function<void(const MicroOp &, std::function<void()>)>
        barrierArrive;
    StatGroup stats;
    // The per-phase counters are created by name in finish().
    Counter stInstructions{stats, "instructions"};
    Counter stMemOps{stats, "memOps"};
    Counter stRobStalls{stats, "robStalls"};
    Counter stLqStalls{stats, "lqStalls"};
    Counter stSqStalls{stats, "sqStalls"};
    Counter stStoreForwards{stats, "storeForwards"};
    Counter stSpmAccesses{stats, "spmAccesses"};
    Counter stGuardedAccesses{stats, "guardedAccesses"};
    Counter stGuardedLocalSpm{stats, "guardedLocalSpm"};
    Counter stGuardedResolves{stats, "guardedResolves"};
    Counter stGuardedRemoteSpm{stats, "guardedRemoteSpm"};
    Counter stRemoteSpmAccesses{stats, "remoteSpmAccesses"};
    Counter stDmaCommands{stats, "dmaCommands"};
    Counter stSquashes{stats, "squashes"};
    Counter stKernelCodeWalks{stats, "kernelCodeWalks"};
    Counter stCycles{stats, "cycles"};
};

} // namespace spmcoh

#endif // SPMCOH_CPU_COREMODEL_HH
