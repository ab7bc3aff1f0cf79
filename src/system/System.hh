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
#include <string>
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
     * Pooled far-memory tier (multi-chip fabrics only): when > 0,
     * lines whose static backing chip differs from the serving
     * controller's chip pay this pool access latency (plus the
     * pool's shared bandwidth queue, farMemBytesPerCycle) instead
     * of local DRAM timing. 0 disables the tier: every controller
     * serves all lines from its local DRAM.
     */
    Tick farMemLatency = 0;
    std::uint32_t farMemBytesPerCycle = 8;
    /** Upper bound on a run's length (System::run also stops a run
     *  that stops making progress, see System::progressWindow). */
    Tick maxTicks = std::uint64_t(4) << 32;
    EnergyParams energy{};

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
     * System::run drives the event queue one window of this many
     * ticks at a time. A window in which no unfinished core executes
     * an instruction ends the run as a livelock. The longest stall a
     * valid configuration can see is well under one window: every
     * one of 4096 cores draining a full 32 KiB SPM through the
     * far-memory pool at 1 byte per cycle takes 2^27 ticks, and a
     * full-SPM DMA at maxFarMemLatency (64 lines in flight) about
     * 2^23.
     */
    static constexpr Tick progressWindow = Tick{1} << 28;
    /** Largest far-memory latency validateExperiment accepts. */
    static constexpr Tick maxFarMemLatency = 1'000'000;

    /**
     * Run the given per-core op sources to completion.
     * @return false if the queue drained with a core unfinished, a
     *  progress window passed with no instruction executed, or the
     *  run reached maxTicks; failure() says which, and what each
     *  unfinished core waits on
     */
    bool run(std::vector<std::unique_ptr<OpSource>> sources);

    /** Why the last run() returned false (empty after a success). */
    const std::string &failure() const { return failed; }

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
    /** Fold the fabric's per-requestor broadcast tallies into every
     *  controller's spmdirProbes counter, then reset them. */
    void foldProbeTallies();
    /** "core N: <what it waits on>" for every unfinished core. */
    std::string stuckCores() const;

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
    std::string failed;
};

} // namespace spmcoh

#endif // SPMCOH_SYSTEM_SYSTEM_HH
