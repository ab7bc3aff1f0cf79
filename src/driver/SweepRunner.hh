/**
 * @file
 * Cartesian parameter sweeps over the experiment API: workloads x
 * modes x core counts x workload scales x the two ablation axes
 * (filter capacity, L1D prefetcher on/off). PreparedPrograms are
 * compiled once and shared across every sweep point with the same
 * (workload, cores, scale, spmBytes); points run on a fixed number
 * of worker threads.
 */

#ifndef SPMCOH_DRIVER_SWEEPRUNNER_HH
#define SPMCOH_DRIVER_SWEEPRUNNER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/Experiment.hh"
#include "driver/ResultSink.hh"

namespace spmcoh
{

/**
 * Axes of a cartesian sweep. workloads must be non-empty; so must
 * modes/coreCounts/scales (they start with one default point).
 * Empty paramPoints/filterEntries/prefetcher axes default to a
 * single baseline point (spec-default parameters, unset knobs).
 */
struct SweepSpec
{
    std::vector<std::string> workloads;
    std::vector<SystemMode> modes{SystemMode::HybridProto};
    /** Coherence-protocol axis; empty = default protocol only. */
    std::vector<std::string> protocols;
    std::vector<std::uint32_t> coreCounts{64};
    /** Chip-count axis (Topology::forSystem); {1} = single chip. */
    std::vector<std::uint32_t> chipCounts{1};
    std::vector<double> scales{1.0};
    /** Workload-parameter points; empty = spec defaults only. */
    std::vector<WorkloadParams> paramPoints;
    /** Filter-capacity axis (ExperimentSpec::filterEntries). */
    std::vector<std::uint32_t> filterEntries;
    /** L1D prefetcher on/off axis (ExperimentSpec::prefetcher). */
    std::vector<bool> prefetcher;
    /**
     * Pooled far-memory tier, stamped onto every expanded spec
     * (ExperimentSpec::farMemLat/farMemBw); meaningful only with a
     * chips >= 2 point on the chip axis. Not an axis itself.
     */
    Tick farMemLat = 0;
    std::uint32_t farMemBw = 0;
};

/**
 * Expand named value lists ({"grids", {3, 5}}, {"hotKB", {8, 16}})
 * into their cartesian product of WorkloadParams points, first axis
 * outermost (later axes vary fastest). Empty input gives an empty
 * vector (= sweep at spec defaults); an axis with no values is
 * fatal, as is a repeated name.
 */
std::vector<WorkloadParams> expandParamAxes(
    const std::vector<std::pair<std::string, std::vector<double>>>
        &axes);

/**
 * The worker count runJobs uses for @p workers: @p workers itself,
 * or for 0 the hardware thread count (1 when the platform cannot
 * report it).
 */
std::uint32_t resolveWorkers(std::uint32_t workers);

/**
 * Run @p job(0) .. @p job(@p count - 1) on resolveWorkers(@p workers)
 * threads (0 = the hardware thread count).
 *
 * - **Independence.** Jobs may run concurrently in any order, so
 *   each must touch only its own result slot (indexed by its
 *   argument) and read-only shared state. SweepRunner's jobs each
 *   build their own System from a PreparedProgram compiled before
 *   the batch starts.
 * - **Completion.** Returns only after every claimed job finished.
 * - **Exceptions.** After a job throws, no further job is started;
 *   the exception of the lowest-indexed failed job is rethrown on
 *   the calling thread, the one a serial loop would have surfaced.
 *   Jobs already running still run to completion.
 *
 * With one worker (or one job) the jobs run in order on the calling
 * thread and no thread is spawned.
 */
void runJobs(std::size_t count, std::uint32_t workers,
             const std::function<void(std::size_t)> &job);

/** Expands and executes sweeps, caching compiled programs. */
class SweepRunner
{
  public:
    struct CacheStats
    {
        std::size_t compiles = 0;  ///< distinct programs compiled
        std::size_t hits = 0;      ///< points served from the cache
    };

    /** @param jobs_ worker threads for the sweep points; 1 runs them
     *  on the calling thread, 0 uses the hardware thread count. */
    explicit SweepRunner(
        const WorkloadRegistry &reg_ = WorkloadRegistry::global(),
        std::uint32_t jobs_ = 1)
        : reg(&reg_), jobs(jobs_)
    {}

    /**
     * Expand the cartesian product of @p sweep into validated
     * specs, ordered workload-major (modes, protocols, cores,
     * chips, scales, workload parameters, filter entries, prefetcher
     * vary fastest, in that nesting order). Fatal listing every
     * validation problem when any point is invalid.
     */
    std::vector<ExperimentSpec> expand(const SweepSpec &sweep) const;

    /**
     * Expand and run the sweep. Results are in expand() order.
     * When @p sink is non-null every result is streamed into it
     * between begin(@p title) and end().
     */
    std::vector<ExperimentResult>
    run(const SweepSpec &sweep, ResultSink *sink = nullptr,
        const std::string &title = "");

    const CacheStats &cacheStats() const { return cstats; }

  private:
    const PreparedProgram &prepared(const ExperimentSpec &spec);

    const WorkloadRegistry *reg;
    std::uint32_t jobs;
    std::map<std::string, std::unique_ptr<PreparedProgram>> cache;
    CacheStats cstats;
};

/**
 * Find the first result matching workload, mode and variant name
 * (ExperimentSpec::variant(), "" = both knobs unset); fatal if none.
 */
const ExperimentResult &
findResult(const std::vector<ExperimentResult> &results,
           const std::string &workload, SystemMode mode,
           const std::string &variant = "");

/** Geometric mean (0 for an empty set). */
double geomean(const std::vector<double> &v);

} // namespace spmcoh

#endif // SPMCOH_DRIVER_SWEEPRUNNER_HH
