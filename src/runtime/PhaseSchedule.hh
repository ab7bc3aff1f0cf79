/**
 * @file
 * Phase-graph schedule: the deterministic execution plan of a
 * program's kernel DAG.
 *
 * A program is a DAG of kernels (LoopIr.hh), each assigned to a core
 * group and ordered by explicit dependency edges. The schedule
 * resolves that graph for a concrete machine size into
 *
 *  - a deterministic topological kernel order (Kahn, smallest kernel
 *    index first) shared by every core, which both guarantees
 *    deadlock-free barrier arrival order and makes runs byte-stable;
 *  - per-core step sequences: which kernels a core runs, and which
 *    completion barriers it must wait on first (dependencies whose
 *    producer group it is not part of, deduplicated so every core
 *    arrives at most once per barrier);
 *  - per-kernel scoped-barrier metadata: the exact arrival count
 *    (group members plus cross-group waiters) and the core span the
 *    System derives the release latency from.
 *
 * Timesteps repeat the whole graph. Kernels with no predecessors
 * ("roots") implicitly wait on the previous timestep's kernels with
 * no successors ("sinks"), which serializes timesteps exactly like
 * the historical global barrier did for flat programs while still
 * letting disjoint-group phases overlap within a timestep.
 *
 * Flat legacy programs (no edges, no groups) lower through
 * ensurePhaseDeps() to a chain of all-core kernels whose schedule
 * reproduces the old "barrier after every kernel" execution
 * byte-for-byte.
 */

#ifndef SPMCOH_RUNTIME_PHASESCHEDULE_HH
#define SPMCOH_RUNTIME_PHASESCHEDULE_HH

#include <cstdint>
#include <vector>

#include "compiler/LoopIr.hh"

namespace spmcoh
{

/** One kernel execution in one core's schedule walk. */
struct PhaseStep
{
    std::uint32_t kernelIdx = 0;  ///< index into ProgramDecl::kernels
    bool root = false;            ///< kernel has no predecessors
    /** Same-timestep completion barriers to await before running. */
    std::vector<std::uint32_t> waits;
    /** Previous-timestep sink barriers to await (roots, t > 0). */
    std::vector<std::uint32_t> prevSinkWaits;
};

/** Scoped-barrier metadata for one kernel's completion barrier. */
struct PhaseBarrier
{
    /** Arrivals in a non-final timestep (members + waiters +, for
     *  sinks, the next timestep's root cores outside the group). */
    std::uint32_t parties = 0;
    /** Arrivals in the final timestep (no cross-timestep waiters). */
    std::uint32_t partiesLast = 0;
    std::uint32_t loCore = 0;     ///< membership span, inclusive
    std::uint32_t hiCore = 0;
};

/** Resolved execution plan of a program's phase graph. */
class PhaseSchedule
{
  public:
    PhaseSchedule() = default;

    /**
     * Resolve @p decl for @p num_cores. Fatal on dependency cycles,
     * dangling edges or groups outside the machine -- conditions
     * ProgramBuilder::build() reports with friendlier diagnostics;
     * the schedule re-checks them so hand-built ProgramDecls cannot
     * deadlock the simulator.
     */
    PhaseSchedule(const ProgramDecl &decl, std::uint32_t num_cores);

    std::uint32_t numKernels() const
    { return static_cast<std::uint32_t>(barriers.size()); }
    std::uint32_t numCores() const { return cores; }
    std::uint32_t timesteps() const { return steps_; }

    /** Kernel indices in the deterministic topological order. */
    const std::vector<std::uint32_t> &topoOrder() const
    { return topo; }

    /** The steps @p core executes within one timestep. */
    std::vector<PhaseStep> stepsFor(std::uint32_t core) const;

    /** Completion-barrier metadata for kernel @p idx. */
    const PhaseBarrier &barrier(std::uint32_t idx) const
    { return barriers[idx]; }

    /** Globally unique barrier id of (timestep, kernel idx). */
    std::uint32_t
    barrierId(std::uint32_t timestep, std::uint32_t idx) const
    {
        return timestep * numKernels() + idx;
    }

    /** Arrival count of kernel @p idx's barrier at @p timestep. */
    std::uint32_t
    partiesAt(std::uint32_t timestep, std::uint32_t idx) const
    {
        return timestep + 1 == steps_ ? barriers[idx].partiesLast
                                      : barriers[idx].parties;
    }

    /** Distinct resolved core groups across the kernels. */
    std::uint32_t numGroups() const { return groups; }

    /** Total dependency edges in the (lowered) graph. */
    std::uint32_t numEdges() const { return edges; }

  private:
    std::uint32_t cores = 0;
    std::uint32_t steps_ = 1;
    std::uint32_t groups = 0;
    std::uint32_t edges = 0;
    std::vector<std::uint32_t> topo;
    std::vector<KernelDecl> kernels;       ///< lowered copies
    std::vector<std::uint32_t> sinks_;     ///< kernels w/o successors
    std::vector<PhaseBarrier> barriers;
};

} // namespace spmcoh

#endif // SPMCOH_RUNTIME_PHASESCHEDULE_HH
