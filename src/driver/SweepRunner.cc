/**
 * @file
 * Sweep expansion and execution.
 */

#include "driver/SweepRunner.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/Logging.hh"

namespace spmcoh
{

std::vector<WorkloadParams>
expandParamAxes(
    const std::vector<std::pair<std::string, std::vector<double>>>
        &axes)
{
    std::vector<WorkloadParams> points;
    for (const auto &[name, values] : axes) {
        if (name.empty())
            fatal("expandParamAxes: parameter name must not be "
                  "empty");
        if (values.empty())
            fatal("expandParamAxes: parameter '" + name +
                  "' lists no values");
        if (points.empty())
            points.push_back(WorkloadParams{});
        for (const WorkloadParams &p : points)
            if (p.has(name))
                fatal("expandParamAxes: parameter '" + name +
                      "' given twice");
        std::vector<WorkloadParams> next;
        next.reserve(points.size() * values.size());
        for (const WorkloadParams &p : points)
            for (double v : values)
                next.push_back(WorkloadParams(p).set(name, v));
        points = std::move(next);
    }
    return points;
}

std::uint32_t
resolveWorkers(std::uint32_t workers)
{
    if (workers != 0)
        return workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
runJobs(std::size_t count, std::uint32_t workers,
        const std::function<void(std::size_t)> &job)
{
    workers = resolveWorkers(workers);
    if (workers == 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            job(i);
        return;
    }

    // The shared queue is an atomic cursor over the job indices;
    // each worker claims the next index until the queue drains or a
    // job fails.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errMutex;
    std::size_t errIndex = count;
    std::exception_ptr errPtr;

    auto worker = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                job(i);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(errMutex);
                // Keep the lowest-indexed failure: it is the one a
                // serial loop would have thrown.
                if (i < errIndex) {
                    errIndex = i;
                    errPtr = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> threads(
        std::min<std::size_t>(workers, count));
    for (std::thread &t : threads)
        t = std::thread(worker);
    for (std::thread &t : threads)
        t.join();

    if (errPtr)
        std::rethrow_exception(errPtr);
}

std::vector<ExperimentSpec>
SweepRunner::expand(const SweepSpec &sweep) const
{
    if (sweep.workloads.empty())
        fatal("SweepRunner: sweep needs at least one workload");
    if (sweep.modes.empty() || sweep.coreCounts.empty() ||
        sweep.chipCounts.empty() || sweep.scales.empty())
        fatal("SweepRunner: sweep axes must not be empty");

    // An empty knob axis is one point with the knob unset.
    std::vector<std::optional<std::uint32_t>> filters(
        sweep.filterEntries.begin(), sweep.filterEntries.end());
    if (filters.empty())
        filters.emplace_back();
    std::vector<std::optional<bool>> pfs(sweep.prefetcher.begin(),
                                         sweep.prefetcher.end());
    if (pfs.empty())
        pfs.emplace_back();
    std::vector<WorkloadParams> ppoints = sweep.paramPoints;
    if (ppoints.empty())
        ppoints.push_back(WorkloadParams{});
    std::vector<std::string> protocols = sweep.protocols;
    if (protocols.empty())
        protocols.push_back(ProtocolFactory::defaultName());

    std::vector<ExperimentSpec> specs;
    std::vector<std::string> errs;
    for (const std::string &w : sweep.workloads) {
        for (SystemMode m : sweep.modes) {
          for (const std::string &proto : protocols) {
            for (std::uint32_t c : sweep.coreCounts) {
              for (std::uint32_t ch : sweep.chipCounts) {
                for (double s : sweep.scales) {
                  for (const WorkloadParams &wp : ppoints) {
                    for (const auto &fe : filters) {
                      for (const auto &pf : pfs) {
                        ExperimentSpec e;
                        e.workload = w;
                        e.mode = m;
                        e.protocol = proto;
                        e.cores = c;
                        e.chips = ch;
                        // The far tier only exists behind a hub:
                        // single-chip points on a mixed chip axis
                        // run without it rather than failing
                        // validation.
                        e.farMemLat = ch > 1 ? sweep.farMemLat : 0;
                        e.farMemBw = ch > 1 ? sweep.farMemBw : 0;
                        e.scale = s;
                        e.wparams = wp;
                        e.filterEntries = fe;
                        e.prefetcher = pf;
                        for (const std::string &err :
                             validateExperiment(e, *reg))
                            errs.push_back(e.label() + ": " + err);
                        specs.push_back(std::move(e));
                      }
                    }
                  }
                }
              }
            }
          }
        }
    }
    if (!errs.empty()) {
        std::string msg = "invalid sweep:";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        fatal(msg);
    }
    return specs;
}

const PreparedProgram &
SweepRunner::prepared(const ExperimentSpec &spec)
{
    const SystemParams p = spec.resolvedParams();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%u|%.17g|%u|", spec.cores,
                  spec.scale, p.spmBytes);
    // Key on the spec-resolved assignment, not the caller's: a point
    // that spells out a default value compiles the same program as
    // one that omits it, and must share the cache entry.
    const std::string key = spec.workload + buf +
        reg->spec(spec.workload).resolve(spec.wparams).render();
    auto it = cache.find(key);
    if (it != cache.end()) {
        ++cstats.hits;
        return *it->second;
    }
    ++cstats.compiles;
    const ProgramDecl prog = reg->build(spec.workload, spec.cores,
                                        spec.scale, spec.wparams);
    auto pp = std::make_unique<PreparedProgram>(
        prepareProgram(prog, spec.cores, p.spmBytes));
    return *cache.emplace(key, std::move(pp)).first->second;
}

std::vector<ExperimentResult>
SweepRunner::run(const SweepSpec &sweep, ResultSink *sink,
                 const std::string &title)
{
    const std::vector<ExperimentSpec> specs = expand(sweep);

    // Compile phase: serial, so the point jobs share read-only
    // PreparedPrograms and stay independent of each other.
    std::vector<const PreparedProgram *> programs;
    programs.reserve(specs.size());
    for (const ExperimentSpec &s : specs)
        programs.push_back(&prepared(s));

    std::vector<ExperimentResult> results(specs.size());
    runJobs(specs.size(), jobs, [&](std::size_t i) {
        results[i] = runExperiment(specs[i], *reg, programs[i]);
    });

    if (sink) {
        sink->begin(title);
        for (const ExperimentResult &r : results)
            sink->add(r);
        sink->end();
    }
    return results;
}

const ExperimentResult &
findResult(const std::vector<ExperimentResult> &results,
           const std::string &workload, SystemMode mode,
           const std::string &variant)
{
    for (const ExperimentResult &r : results)
        if (r.spec.workload == workload && r.spec.mode == mode &&
            r.spec.variant() == variant)
            return r;
    fatal("findResult: no result for " + workload + "/" +
          systemModeName(mode) +
          (variant.empty() ? "" : "+" + variant));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

} // namespace spmcoh
