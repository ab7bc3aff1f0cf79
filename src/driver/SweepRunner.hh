/**
 * @file
 * Cartesian parameter sweeps over the experiment API: workloads x
 * modes x core counts x workload scales x named parameter variants.
 * PreparedPrograms are compiled once and shared across every sweep
 * point with the same (workload, cores, scale, spmBytes); points run
 * through a pluggable executor so a thread-pool backend can slot in
 * without touching the sweep logic.
 */

#ifndef SPMCOH_DRIVER_SWEEPRUNNER_HH
#define SPMCOH_DRIVER_SWEEPRUNNER_HH

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

/** One named point on the parameter-variant axis. */
struct SweepVariant
{
    std::string name;
    /** Applied to the resolved SystemParams of each point. */
    std::function<void(SystemParams &)> tweak;
};

/**
 * Axes of a cartesian sweep. workloads must be non-empty; so must
 * modes/coreCounts/scales (they start with one default point).
 * Empty paramPoints/variants axes default to a single baseline
 * point (spec-default parameters / no tweak).
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
    /** Empty = single un-tweaked baseline point. */
    std::vector<SweepVariant> variants;
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
 * Runs batches of independent jobs.
 *
 * Contract between SweepRunner and Executor implementations:
 *
 * - **Job independence.** Every job submitted by SweepRunner is
 *   thread-safe against every other job in the same batch: each job
 *   builds its own System, draws from its own deterministic Rngs,
 *   and writes only its own pre-allocated result slot. Shared
 *   inputs (the WorkloadRegistry and the PreparedProgram cache) are
 *   read-only during execution — compilation is hoisted into a
 *   serial phase before the batch is submitted. Implementations may
 *   therefore run jobs concurrently without any locking.
 * - **Completion.** run() must not return before every claimed job
 *   has finished; results are read immediately after it returns.
 * - **Ordering.** Jobs may execute in any order on any thread.
 *   Result ordering is the caller's responsibility (per-job result
 *   slots), so output is identical whatever the execution order.
 * - **Exceptions.** Jobs may throw (FatalError/PanicError from a
 *   misconfigured or deadlocked point). An implementation must stop
 *   dispatching further jobs and propagate the failure of the
 *   lowest-indexed failed job to the caller of run(), matching what
 *   SerialExecutor would have thrown.
 *
 * SerialExecutor runs jobs in order on the calling thread;
 * ThreadPoolExecutor (ThreadPool.hh) drains the batch with a fixed
 * worker pool.
 */
class Executor
{
  public:
    virtual ~Executor() = default;
    /** Run every job; must not return before all complete. */
    virtual void run(std::vector<std::function<void()>> jobs) = 0;
};

/** In-order, same-thread executor. */
class SerialExecutor final : public Executor
{
  public:
    void
    run(std::vector<std::function<void()>> jobs) override
    {
        for (auto &j : jobs)
            j();
    }
};

/** Expands and executes sweeps, caching compiled programs. */
class SweepRunner
{
  public:
    struct CacheStats
    {
        std::size_t compiles = 0;  ///< distinct programs compiled
        std::size_t hits = 0;      ///< points served from the cache
    };

    explicit SweepRunner(
        const WorkloadRegistry &reg_ = WorkloadRegistry::global(),
        Executor *ex_ = nullptr)
        : reg(&reg_), ex(ex_)
    {}

    /**
     * Expand the cartesian product of @p sweep into validated
     * specs, ordered workload-major (modes, protocols, cores,
     * chips, scales, workload parameters, variants vary fastest, in
     * that nesting order). Fatal listing every validation problem
     * when any point is invalid.
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

    /** Run pre-expanded specs (cache + executor still apply). */
    std::vector<ExperimentResult>
    runSpecs(const std::vector<ExperimentSpec> &specs,
             ResultSink *sink = nullptr,
             const std::string &title = "");

    const CacheStats &cacheStats() const { return cstats; }
    const WorkloadRegistry &registry() const { return *reg; }

    /**
     * Replace the executor (null = built-in serial). The executor
     * must outlive the runner; the runner does not take ownership.
     */
    void setExecutor(Executor *ex_) { ex = ex_; }

  private:
    const PreparedProgram &prepared(const ExperimentSpec &spec);

    const WorkloadRegistry *reg;
    SerialExecutor serial;
    /** Null = use the built-in serial executor. Kept as a pointer
     *  resolved at run time so implicit copies/moves stay safe. */
    Executor *ex;
    std::map<std::string, std::unique_ptr<PreparedProgram>> cache;
    CacheStats cstats;
};

/** Find the first result matching workload and mode; fatal if none. */
const ExperimentResult &
findResult(const std::vector<ExperimentResult> &results,
           const std::string &workload, SystemMode mode,
           const std::string &variant = "");

/** Geometric mean (0 for an empty set). */
double geomean(const std::vector<double> &v);

} // namespace spmcoh

#endif // SPMCOH_DRIVER_SWEEPRUNNER_HH
