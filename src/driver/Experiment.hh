/**
 * @file
 * The experiment API: declare a run (workload, system mode, core
 * count, workload scale, parameter overrides) through a validated
 * fluent builder, execute it, and get structured results back —
 * the RunResults aggregates plus a per-component statistics
 * snapshot ready for serialization.
 *
 * Replaces the free-function experiment layer that each bench
 * harness used to hand-roll loops around.
 */

#ifndef SPMCOH_DRIVER_EXPERIMENT_HH
#define SPMCOH_DRIVER_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/WorkloadRegistry.hh"
#include "protocols/ProtocolFactory.hh"
#include "runtime/ProgramSource.hh"
#include "system/System.hh"

namespace spmcoh
{

/** A compiled + laid-out + scheduled program ready to run. */
struct PreparedProgram
{
    ProgramPlan plan;
    ProgramLayout layout;
    /** Resolved phase-graph execution plan (scoped barriers). */
    PhaseSchedule schedule;
};

/** Compile and lay out @p prog for the given machine size. */
PreparedProgram prepareProgram(const ProgramDecl &prog,
                               std::uint32_t num_cores,
                               std::uint32_t spm_bytes);

/** Make one op source per core for @p pp on mode @p mode. */
std::vector<std::unique_ptr<OpSource>>
makeSources(const PreparedProgram &pp, std::uint32_t num_cores,
            SystemMode mode, std::uint32_t spm_bytes);

/** Snapshot of one histogram, storage-independent. */
struct HistogramSnapshot
{
    std::vector<std::uint64_t> edges;
    std::vector<std::uint64_t> buckets;
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t maxValue = 0;
};

/** Snapshot of one component class's statistics. */
struct GroupSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;
};

/**
 * Per-component statistics of a finished run, aggregated over the
 * per-tile instances ("l1d0".."l1d63" fold into "l1d").
 */
using StatSnapshot = std::map<std::string, GroupSnapshot>;

/** Capture an aggregated statistics snapshot from @p sys. */
StatSnapshot snapshotStats(const System &sys);

/** Declarative description of one experiment run. */
struct ExperimentSpec
{
    std::string workload;
    SystemMode mode = SystemMode::HybridProto;
    /** Coherence protocol name (ProtocolFactory key). */
    std::string protocol = ProtocolFactory::defaultName();
    std::uint32_t cores = 64;
    /** Chips the cores distribute over (Topology::forSystem). */
    std::uint32_t chips = 1;
    /** Pooled far-memory latency, 0 = no far tier (chips > 1 only). */
    Tick farMemLat = 0;
    /** Pooled far-memory serialization width; 0 = model default. */
    std::uint32_t farMemBw = 0;
    double scale = 1.0;
    /**
     * Workload parameters, validated against the workload's spec
     * (unknown keys and out-of-range values are rejected); empty
     * entries take the spec's defaults.
     */
    WorkloadParams wparams;
    /** Label for a parameter variant in sweeps ("" = baseline). */
    std::string variant;
    /**
     * Replaces the derived defaults when set. The mode is always
     * taken from the spec field above; the override must have been
     * built for exactly `cores` cores (its mesh and memory
     * controller placement are geometry-dependent), or
     * validateExperiment rejects the spec.
     */
    std::optional<SystemParams> paramsOverride;

    /**
     * The SystemParams this spec resolves to. Without an override
     * this derives the topology for `cores`, which is fatal for
     * untileable counts — validate first (validateExperiment wraps
     * Topology::checkCores).
     */
    SystemParams resolvedParams() const;

    /** "CG/hybrid-proto[/protocol]/64c[/2chip]/x1.00[/fm200[b8]]
     *  [{params}][+variant]" label; the protocol, chips and far-mem
     *  segments appear only off their defaults. */
    std::string label() const;
};

/**
 * Validate @p spec against @p reg. Returns every problem found, one
 * human-readable message each; empty means the spec is runnable.
 */
std::vector<std::string>
validateExperiment(const ExperimentSpec &spec,
                   const WorkloadRegistry &reg);

/** Everything a finished experiment produced. */
struct ExperimentResult
{
    ExperimentSpec spec;
    SystemParams params;   ///< resolved configuration that ran
    RunResults results;
    StatSnapshot stats;
};

/**
 * Validate and run one experiment. Fatal with the validation
 * messages if the spec is bad, or if the simulation trips the
 * deadlock guard.
 *
 * @param prepared reuses an already-compiled program (sweep cache);
 *                 compiled on the spot when null.
 */
ExperimentResult
runExperiment(const ExperimentSpec &spec,
              const WorkloadRegistry &reg = WorkloadRegistry::global(),
              const PreparedProgram *prepared = nullptr);

/**
 * Fluent construction of an ExperimentSpec with upfront validation:
 *
 *   auto r = ExperimentBuilder()
 *                .workload("CG")
 *                .mode(SystemMode::HybridProto)
 *                .cores(64)
 *                .run();
 */
class ExperimentBuilder
{
  public:
    explicit ExperimentBuilder(
        const WorkloadRegistry &reg_ = WorkloadRegistry::global())
        : reg(&reg_)
    {}

    ExperimentBuilder &
    workload(const std::string &name)
    {
        s.workload = name;
        return *this;
    }

    ExperimentBuilder &
    mode(SystemMode m)
    {
        s.mode = m;
        return *this;
    }

    /** Select the coherence protocol by factory name. */
    ExperimentBuilder &
    protocol(const std::string &name)
    {
        s.protocol = name;
        return *this;
    }

    ExperimentBuilder &
    cores(std::uint32_t n)
    {
        s.cores = n;
        return *this;
    }

    /** Distribute the cores over @p n chips (multi-chip fabric). */
    ExperimentBuilder &
    chips(std::uint32_t n)
    {
        s.chips = n;
        return *this;
    }

    /** Pooled far-memory tier: latency + optional link width. */
    ExperimentBuilder &
    farMem(Tick latency, std::uint32_t bytes_per_cycle = 0)
    {
        s.farMemLat = latency;
        s.farMemBw = bytes_per_cycle;
        return *this;
    }

    ExperimentBuilder &
    scale(double x)
    {
        s.scale = x;
        return *this;
    }

    /** Set one workload parameter (validated against the spec). */
    ExperimentBuilder &
    param(const std::string &name, double value)
    {
        s.wparams.set(name, value);
        return *this;
    }

    /** Replace the whole workload parameter assignment. */
    ExperimentBuilder &
    workloadParams(const WorkloadParams &p)
    {
        s.wparams = p;
        return *this;
    }

    ExperimentBuilder &
    variant(const std::string &name)
    {
        s.variant = name;
        return *this;
    }

    /** Replace the Table 1 defaults entirely. */
    ExperimentBuilder &
    params(const SystemParams &p)
    {
        s.paramsOverride = p;
        return *this;
    }

    /** Mutate the resolved parameters (applied in call order). */
    ExperimentBuilder &tweak(std::function<void(SystemParams &)> fn);

    /** Validated spec; fatal with all problems when invalid. */
    ExperimentSpec spec() const;

    /** The resolved, validated SystemParams of this spec. */
    SystemParams systemParams() const { return spec().resolvedParams(); }

    /** Validate and run. */
    ExperimentResult
    run() const
    {
        return runExperiment(spec(), *reg);
    }

  private:
    const WorkloadRegistry *reg;
    ExperimentSpec s;
    std::vector<std::function<void(SystemParams &)>> tweaks;
};

} // namespace spmcoh

#endif // SPMCOH_DRIVER_EXPERIMENT_HH
