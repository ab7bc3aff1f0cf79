/**
 * @file
 * Registry tying together the per-core coherence controllers, the
 * FilterDir slices, the global buffer configuration and the ideal-
 * coherence oracle.
 *
 * The FilterDir broadcast (Fig. 5c/5d) is simulated as one aggregate
 * event; the slice consults remote SPMDirs through this registry at
 * the probe-arrival instant while every probe/response packet is
 * accounted on the mesh (docs/architecture.md, "Aggregated FilterDir
 * broadcast").
 */

#ifndef SPMCOH_COHERENCE_COHFABRIC_HH
#define SPMCOH_COHERENCE_COHFABRIC_HH

#include <cstdint>
#include <vector>

#include "coherence/BufferConfig.hh"
#include "coherence/Oracle.hh"
#include "sim/Types.hh"

namespace spmcoh
{

class CohController;
class FilterDirSlice;

/** Shared state of the SPM coherence protocol. */
struct CohFabric
{
    /** Chip-wide Base/Offset mask registers (fork-join invariant). */
    BufferConfig config;
    /** Per-core controllers, indexed by core id. */
    std::vector<CohController *> ctrls;
    /** Per-tile FilterDir slices. */
    std::vector<FilterDirSlice *> slices;
    /** Ideal-coherence oracle (Fig. 7 baseline). */
    Oracle oracle;
    /** True when running the ideal protocol. */
    bool ideal = false;
    /**
     * FilterDir broadcasts per requesting core. Every broadcast probes
     * all other cores' SPMDirs, so core c's probe count is the total
     * minus broadcastsBy[c]; System::run folds that into each
     * controller's spmdirProbes counter once the run ends.
     */
    std::vector<std::uint64_t> broadcastsBy;

    /** FilterDir home slice for a GM base address. */
    CoreId
    homeFor(Addr base) const
    {
        return interleaveSlice(
            base >> config.log2Bytes(),
            static_cast<std::uint32_t>(ctrls.size()));
    }
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_COHFABRIC_HH
