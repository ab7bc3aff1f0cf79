/**
 * @file
 * Energy model (substitute for McPAT, Sec. 5.1).
 *
 * McPAT post-processes simulator activity counters into energy with
 * per-structure access energies and leakage; this model does exactly
 * that with CACTI-class per-event constants at a 22nm-like node. The
 * paper's Fig. 11 reports energies *normalized to the cache-based
 * system*, so only the relative magnitudes between components matter.
 *
 * Component grouping matches Fig. 11: CPUs, Caches (incl. TLBs,
 * MSHRs, prefetchers), NoC, Others (cache directory, DMACs, memory
 * controllers), SPMs, and CohProt (SPMDir + filters + filterDir).
 */

#ifndef SPMCOH_ENERGY_ENERGYMODEL_HH
#define SPMCOH_ENERGY_ENERGYMODEL_HH

#include <cstdint>

namespace spmcoh
{

/** Raw activity counters of one simulation run. */
struct RunCounters
{
    std::uint64_t cycles = 0;        ///< end-to-end execution cycles
    std::uint32_t numCores = 64;

    std::uint64_t instructions = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iAccesses = 0;   ///< fetch groups + code walks
    std::uint64_t l1iMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t dirTxns = 0;
    std::uint64_t tlbAccesses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t memLines = 0;      ///< DRAM line reads + writes
    std::uint64_t flitHops = 0;
    std::uint64_t spmAccesses = 0;   ///< CPU + DMA, reads + writes
    std::uint64_t dmaLines = 0;
    std::uint64_t spmDirLookups = 0; ///< local + broadcast probes
    std::uint64_t filterLookups = 0;
    std::uint64_t filterDirOps = 0;
    std::uint64_t squashes = 0;
    std::uint64_t guardedAccesses = 0;
};

/** Per-event energies (nJ) and per-cycle leakage (nJ/cycle). */
struct EnergyParams
{
    // Dynamic, nJ per event (CACTI-class 22nm ballpark; only the
    // ratios matter for the normalized Fig. 11).
    double cpuPerInstr = 0.032;
    double cpuPerSquash = 1.2;
    double l1Access = 0.090;      ///< 64KB/32KB 4-way incl. tags
    double l1Fill = 0.060;
    double l2Access = 0.25;       ///< 256KB slice, 16-way
    double tlbAccess = 0.020;     ///< part of every GM access
    double tlbWalk = 0.30;
    double dirTxn = 0.012;
    double memPerLine = 0.40;     ///< controller/PHY slice; DRAM
                                  ///< device energy is off-chip and
                                  ///< excluded, as in McPAT runs
    double nocPerFlitHop = 0.0045;
    double spmAccess = 0.025;     ///< no tags, no TLB: ~3x cheaper
                                  ///< than an L1+TLB access
    double dmaPerLine = 0.010;
    double spmDirLookup = 0.004;  ///< 32-entry CAM
    double filterLookup = 0.005;  ///< 48-entry CAM
    double filterDirOp = 0.010;   ///< 64-entry CAM + sharer vector

    // Static, nJ per cycle (whole chip, divided per component).
    double cpuStaticPerCoreCycle = 0.030;
    double l1StaticPerCoreCycle = 0.0040;
    double l2StaticPerSliceCycle = 0.0060;
    double tlbStaticPerCoreCycle = 0.0006;
    double nocStaticPerTileCycle = 0.0035;
    double dirStaticPerSliceCycle = 0.0018;
    double mcStaticPerCycle = 0.030;
    double dmacStaticPerCoreCycle = 0.0008;
    double spmStaticPerCoreCycle = 0.0028;
    double cohStaticPerCoreCycle = 0.0040;   ///< SPMDir + filter
    double filterDirStaticPerSliceCycle = 0.0010;

    /** Structures power-gate when unused (Sec. 5.3 / 4.1). */
    bool gateUnusedCohStructures = true;
    bool hybridStructuresPresent = true;  ///< SPM/DMAC/coh leakage
};

/** Fig. 11 component grouping, in nJ. */
struct EnergyBreakdown
{
    double cpus = 0;
    double caches = 0;
    double noc = 0;
    double others = 0;
    double spms = 0;
    double cohProt = 0;

    double
    total() const
    {
        return cpus + caches + noc + others + spms + cohProt;
    }
};

/** Turns counters into the Fig. 11 breakdown. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &p_ = EnergyParams{})
        : p(p_)
    {}

    EnergyBreakdown
    compute(const RunCounters &c) const
    {
        EnergyBreakdown e;
        const double n = c.numCores;
        const double cyc = static_cast<double>(c.cycles);

        e.cpus = p.cpuPerInstr * c.instructions +
                 p.cpuPerSquash * c.squashes +
                 p.cpuStaticPerCoreCycle * n * cyc;

        e.caches = p.l1Access * (c.l1dAccesses + c.l1iAccesses) +
                   p.l1Fill * (c.l1dMisses + c.l1iMisses) +
                   p.l2Access * c.l2Accesses +
                   p.tlbAccess * c.tlbAccesses +
                   p.tlbWalk * c.tlbMisses +
                   (p.l1StaticPerCoreCycle +
                    p.tlbStaticPerCoreCycle) * n * cyc +
                   p.l2StaticPerSliceCycle * n * cyc;

        e.noc = p.nocPerFlitHop * c.flitHops +
                p.nocStaticPerTileCycle * n * cyc;

        e.others = p.dirTxn * c.dirTxns +
                   p.memPerLine * c.memLines +
                   p.dirStaticPerSliceCycle * n * cyc +
                   p.mcStaticPerCycle * cyc;
        if (p.hybridStructuresPresent) {
            e.others += p.dmaPerLine * c.dmaLines +
                        p.dmacStaticPerCoreCycle * n * cyc;
        }

        if (p.hybridStructuresPresent) {
            e.spms = p.spmAccess * c.spmAccesses +
                     p.spmStaticPerCoreCycle * n * cyc;

            const bool coh_used =
                c.guardedAccesses > 0 || c.filterDirOps > 0 ||
                c.spmDirLookups > 0;
            const double coh_leak_scale =
                (p.gateUnusedCohStructures && !coh_used) ? 0.25 : 1.0;
            e.cohProt = p.spmDirLookup * c.spmDirLookups +
                        p.filterLookup * c.filterLookups +
                        p.filterDirOp * c.filterDirOps +
                        coh_leak_scale *
                            (p.cohStaticPerCoreCycle * n * cyc +
                             p.filterDirStaticPerSliceCycle * n * cyc);
        }
        return e;
    }

    const EnergyParams &params() const { return p; }

  private:
    EnergyParams p;
};

} // namespace spmcoh

#endif // SPMCOH_ENERGY_ENERGYMODEL_HH
