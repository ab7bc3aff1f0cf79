/**
 * @file
 * Full-system assembly: the 64-core manycore of Table 1 in three
 * flavors -- cache-based, hybrid with ideal coherence, and hybrid
 * with the proposed SPM coherence protocol.
 *
 * Every tile hosts a core, L1I/L1D, TLB, SPM, DMAC, SPM coherence
 * controller, one L2/directory slice and one FilterDir slice;
 * memory controllers sit at the mesh corners (four on the Table 1
 * machine, scaling with the core count — see Topology.hh for how
 * larger meshes are derived).
 */

#ifndef SPMCOH_SYSTEM_SYSTEM_HH
#define SPMCOH_SYSTEM_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/CohController.hh"
#include "coherence/FilterDirSlice.hh"
#include "cpu/Barrier.hh"
#include "cpu/CoreModel.hh"
#include "energy/EnergyModel.hh"
#include "mem/DirectorySlice.hh"
#include "mem/L1Cache.hh"
#include "mem/MainMemory.hh"
#include "mem/MemNet.hh"
#include "mem/Tlb.hh"
#include "noc/Mesh.hh"
#include "protocols/ProtocolFactory.hh"
#include "spm/AddressMap.hh"
#include "spm/Dmac.hh"
#include "spm/Spm.hh"
#include "sim/EventQueue.hh"
#include "sim/Region.hh"
#include "sim/Stats.hh"
#include "system/Topology.hh"

namespace spmcoh
{

/** Complete system configuration (Table 1 defaults). */
struct SystemParams
{
    std::uint32_t numCores = 64;
    SystemMode mode = SystemMode::HybridProto;
    /** Coherence protocol name resolved via ProtocolFactory. */
    std::string protocol = ProtocolFactory::defaultName();

    MeshParams mesh{};                 ///< 8x8, 1-cycle link/router
    L1Params l1d{};                    ///< 32KB 4-way, prefetcher
    L1Params l1i{};                    ///< 32KB 4-way
    DirSliceParams dir{};              ///< 256KB slice, MOESI dir
    MemCtrlParams mc{};
    TlbParams tlb{};
    std::uint32_t spmBytes = 32 * 1024;
    Tick spmLatency = 2;
    DmacParams dmac{};
    CohParams coh{};
    FilterDirParams filterDir{};
    CoreParams core{};
    /** Table 1: four controllers at the 8x8 mesh corners. forMode
     *  re-derives this (with the mesh) for any other core count. */
    std::vector<CoreId> mcTiles = {0, 7, 56, 63};
    /** Release round trip across the 8x8 mesh diameter; forMode
     *  re-derives it from the chosen geometry. Group-scoped barriers
     *  spanning a subset of the mesh derive a smaller latency from
     *  their member span (System::barrierFor). */
    Tick barrierLatency = 58;
    /**
     * Scale per-controller memory bandwidth with the core
     * population (ROADMAP "Scale"): when set, each controller's
     * line-service occupancy becomes
     * serviceCycles * 16 * numControllers / numCores cycles, keeping
     * aggregate bandwidth proportional to the core count (the
     * Table 1 machine -- 64 cores, 4 controllers -- is the fixed
     * point). Default off so existing goldens are untouched.
     */
    bool scaleMcBandwidth = false;
    /**
     * Pooled far-memory tier (multi-chip fabrics only): when > 0,
     * lines whose static backing chip differs from the serving
     * controller's chip pay this pool access latency (plus the
     * pool's shared bandwidth queue, farMemBytesPerCycle) instead
     * of local DRAM timing. 0 disables the tier: every controller
     * serves all lines from its local DRAM.
     */
    Tick farMemLatency = 0;
    std::uint32_t farMemBytesPerCycle = 8;
    /** Deadlock guard for event-loop runs. */
    Tick maxTicks = std::uint64_t(4) << 32;
    EnergyParams energy{};

    /**
     * Intra-run worker threads for the partitioned simulation core.
     * 0 (the default) runs the exact legacy monolithic event loop.
     * N >= 1 partitions the mesh into row-band regions, each with
     * its own event queue, synchronized at epoch boundaries; the
     * region structure depends only on the topology (and regionCuts),
     * never on N, so any N >= 1 produces byte-identical results —
     * N only caps how many regions execute concurrently.
     * HybridIdeal mode always runs monolithic (its oracle has
     * same-window read-after-write semantics that cannot be ordered
     * deterministically across regions); the knob is ignored there.
     */
    std::uint32_t simThreads = 0;
    /**
     * Epoch window width in ticks: regions run ahead of the global
     * minimum by at most this much before merging cross-region
     * traffic. Smaller windows track the monolithic timing more
     * closely; larger ones amortize barrier cost. Cross-region
     * deliveries are never earlier than the epoch horizon, so the
     * window bounds the added cross-band latency.
     */
    Tick simWindowTicks = 8;
    /**
     * Adaptive epoch windows: when > 0, the window starts at
     * simWindowTicks and doubles after every *quiet* epoch — one
     * that merged no cross-region entry and left none pending — up
     * to this ceiling, snapping back to simWindowTicks on the first
     * epoch that touches cross-region work. Quietness is a pure
     * function of simulation state (the merged-entry count and the
     * cross heap), so the horizon sequence — and therefore the
     * output — stays byte-identical at any --sim-threads count.
     * 0 (the default) keeps the fixed-width window. Must be >=
     * simWindowTicks when set.
     */
    Tick simWindowMaxTicks = 0;
    /**
     * Interior region boundaries as tile indices (each a multiple of
     * the mesh width: regions are whole row bands, which keeps XY
     * routes and link state region-confined). Empty with
     * simThreads > 0 derives even row cuts from the mesh; the driver
     * passes phase-graph-aligned cuts (RegionMap) instead.
     */
    std::vector<std::uint32_t> regionCuts;

    /**
     * Canonical configuration for a mode and core count. The mesh,
     * memory controller placement and barrier latency are derived
     * by the topology layer (Topology.hh): the most-square mesh
     * whose tile count equals the core count, controllers at the
     * corners (spreading along the edges as the count grows), and
     * a geometry-derived barrier release latency. Fatal on core
     * counts no mesh can tile (Topology::checkCores).
     *
     * Fairness rule of Sec. 5.4: the cache-based system gets a 64KB
     * L1D (32KB L1D + 32KB SPM equivalent) at unchanged latency.
     */
    static SystemParams
    forMode(SystemMode m, std::uint32_t cores = 64,
            std::uint32_t chips = 1)
    {
        SystemParams p;
        p.mode = m;
        p.numCores = cores;
        const Topology t = Topology::forSystem(cores, chips, p.mesh);
        p.mesh.width = t.width;
        p.mesh.height = t.height;
        p.mesh.chips = t.chips;
        p.mcTiles = t.mcTiles;
        p.barrierLatency = t.barrierLatency;
        if (m == SystemMode::CacheOnly) {
            p.l1d.sizeBytes = 64 * 1024;
            p.energy.hybridStructuresPresent = false;
        }
        return p;
    }
};

/** Aggregated outcome of one run (feeds every figure). */
struct RunResults
{
    Tick cycles = 0;
    std::uint64_t phaseCycles[numExecPhases] = {0, 0, 0};
    TrafficCounters traffic{};
    RunCounters counters{};
    EnergyBreakdown energy{};
    double filterHitRatio = 1.0;
    std::uint64_t filterHits = 0;
    std::uint64_t filterMisses = 0;
    std::uint64_t squashes = 0;
    std::uint64_t filterInvalidations = 0;
    std::uint64_t localSpmServed = 0;   ///< guarded, Fig. 5b path
    std::uint64_t remoteSpmServed = 0;  ///< guarded, Fig. 5d path
};

/** The manycore. */
class System
{
  public:
    explicit System(const SystemParams &p_);

    EventQueue &events() { return eq; }
    Mesh &mesh() { return noc; }
    MemNet &memNet() { return *net; }
    MainMemory &memory() { return mem; }
    const AddressMap &addressMap() const { return amap; }
    const SystemParams &params() const { return p; }
    CohFabric &cohFabric() { return fabric; }

    L1Cache &l1dAt(CoreId i) { return *l1ds[i]; }
    L1Cache &l1iAt(CoreId i) { return *l1is[i]; }
    Tlb &tlbAt(CoreId i) { return *tlbs[i]; }
    Spm &spmAt(CoreId i) { return *spms[i]; }
    Dmac &dmacAt(CoreId i) { return *dmacs[i]; }
    CohController &cohAt(CoreId i) { return *cohs[i]; }
    DirectorySlice &dirAt(CoreId i) { return *dirs[i]; }
    FilterDirSlice &filterDirAt(CoreId i) { return *fslices[i]; }
    CoreModel &coreAt(CoreId i) { return *cores[i]; }

    /**
     * Barrier registry used by the cores' barrier hook: the scoped
     * barrier a Barrier op describes. The op's tag carries the
     * arrival count (0 = every core) and its addr the member-core
     * span; a barrier spanning the whole machine uses the configured
     * barrierLatency, a subgroup derives its release latency from
     * the span's mesh bounding box (same round-trip formula the
     * topology layer uses for the full mesh).
     */
    Barrier &barrierFor(const MicroOp &op);

    /**
     * Run the given per-core op sources to completion.
     * @return false if the deadlock guard tripped
     */
    bool run(std::vector<std::unique_ptr<OpSource>> sources);

    /** Regions the machine was partitioned into (0 = monolithic). */
    std::uint32_t numRegions() const
    { return static_cast<std::uint32_t>(regions.size()); }

    /** Worker threads the partitioned run loop will use. */
    std::uint32_t effectiveSimThreads() const { return effThreads; }

    /** Collect counters/energy/traffic after a run. */
    RunResults results() const;

    /**
     * Walk every component's StatGroup (cores, caches, TLBs,
     * directories, SPMs, DMACs, coherence controllers, filter
     * directory slices, memory controllers). Result sinks use this
     * to export per-component statistics.
     */
    void visitStats(StatVisitor &v) const;

  private:
    /** Epoch loop for the partitioned core (simThreads >= 1). */
    bool runPartitioned();

    /** Fold the fabric's per-requestor broadcast tallies into every
     *  controller's spmdirProbes counter, then reset them. */
    void foldProbeTallies();

    SystemParams p;
    EventQueue eq;
    Mesh noc;
    AddressMap amap;
    MainMemory mem;
    CohFabric fabric;
    std::unique_ptr<MemNet> net;
    /** Hub home agent + far-memory pool (multi-chip fabrics only). */
    std::unique_ptr<HomeAgent> hagent;
    std::unique_ptr<PooledMemory> farMem;
    /** Row-band partitions (empty = monolithic run loop). */
    std::vector<std::unique_ptr<Region>> regions;
    std::uint32_t effThreads = 0;
    /** Epoch-loop observability (partitioned runs only): windows
     *  run, window-width sum/max, adaptive transitions, merge
     *  entries, skipped region-windows. Filled once after the run
     *  loop finishes; exported through visitStats so the
     *  adaptivity is observable rather than inferred. */
    StatGroup epochStats{"epochs"};

    std::vector<std::unique_ptr<MemCtrl>> mcs;
    std::vector<std::unique_ptr<DirectorySlice>> dirs;
    std::vector<std::unique_ptr<Spm>> spms;
    std::vector<std::unique_ptr<Dmac>> dmacs;
    std::vector<std::unique_ptr<CohController>> cohs;
    std::vector<std::unique_ptr<FilterDirSlice>> fslices;
    std::vector<std::unique_ptr<L1Cache>> l1ds;
    std::vector<std::unique_ptr<L1Cache>> l1is;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    std::vector<std::unique_ptr<CoreModel>> cores;
    std::unordered_map<std::uint32_t, std::unique_ptr<Barrier>>
        barriers;
    std::vector<std::unique_ptr<OpSource>> running;
};

} // namespace spmcoh

#endif // SPMCOH_SYSTEM_SYSTEM_HH
