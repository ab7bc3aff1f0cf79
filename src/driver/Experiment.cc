/**
 * @file
 * Experiment API implementation: program preparation, spec
 * validation, execution and statistics snapshotting.
 */

#include "driver/Experiment.hh"

#include <cmath>
#include <cstdio>

#include "compiler/Compiler.hh"
#include "runtime/Layout.hh"
#include "sim/Logging.hh"

namespace spmcoh
{

PreparedProgram
prepareProgram(const ProgramDecl &prog, std::uint32_t num_cores,
               std::uint32_t spm_bytes)
{
    PreparedProgram pp;
    Compiler comp(spm_bytes, num_cores);
    pp.plan = comp.compile(prog);
    pp.layout = layoutProgram(pp.plan, num_cores, spm_bytes);
    pp.schedule = PhaseSchedule(pp.plan.decl, num_cores);
    return pp;
}

std::vector<std::unique_ptr<OpSource>>
makeSources(const PreparedProgram &pp, std::uint32_t num_cores,
            SystemMode mode, std::uint32_t spm_bytes)
{
    if (pp.schedule.numCores() != num_cores)
        fatal("makeSources: program was prepared for " +
              std::to_string(pp.schedule.numCores()) +
              " cores, not " + std::to_string(num_cores));
    std::vector<std::unique_ptr<OpSource>> srcs;
    const bool hybrid = mode != SystemMode::CacheOnly;
    srcs.reserve(num_cores);
    for (CoreId c = 0; c < num_cores; ++c)
        srcs.push_back(std::make_unique<ProgramSource>(
            pp.plan, pp.layout, pp.schedule, c, num_cores, hybrid,
            spm_bytes));
    return srcs;
}

namespace
{

/** "l1d17" -> "l1d": fold per-tile instances into a component. */
std::string
componentOf(const std::string &group_name)
{
    std::size_t end = group_name.size();
    while (end > 0 &&
           group_name[end - 1] >= '0' && group_name[end - 1] <= '9')
        --end;
    return end == 0 ? group_name : group_name.substr(0, end);
}

/** Aggregating visitor behind snapshotStats(). */
class SnapshotVisitor final : public StatVisitor
{
  public:
    explicit SnapshotVisitor(StatSnapshot &out_) : out(out_) {}

    void
    beginGroup(const std::string &name) override
    {
        cur = &out[componentOf(name)];
    }

    void endGroup() override { cur = nullptr; }

    void
    scalar(const std::string &key, std::uint64_t value) override
    {
        cur->counters[key] += value;
    }

    void
    histogram(const std::string &key, const Histogram &h) override
    {
        HistogramSnapshot &hs = cur->histograms[key];
        if (hs.buckets.empty()) {
            hs.edges = h.bucketEdges();
            hs.buckets = h.bucketCounts();
        } else if (hs.edges == h.bucketEdges()) {
            for (std::size_t i = 0; i < hs.buckets.size(); ++i)
                hs.buckets[i] += h.bucketCounts()[i];
        } else {
            // Same key, different edges across instances: keep the
            // snapshot internally consistent by skipping the whole
            // contribution, and flag it.
            warn("snapshotStats: histogram '" + key +
                 "' has mismatched edges across instances; "
                 "dropping a contribution");
            return;
        }
        hs.samples += h.samples();
        hs.sum += h.total();
        if (h.maxValue() > hs.maxValue)
            hs.maxValue = h.maxValue();
    }

  private:
    StatSnapshot &out;
    GroupSnapshot *cur = nullptr;
};

} // namespace

StatSnapshot
snapshotStats(const System &sys)
{
    StatSnapshot snap;
    SnapshotVisitor v(snap);
    sys.visitStats(v);
    return snap;
}

SystemParams
ExperimentSpec::resolvedParams() const
{
    if (!paramsOverride) {
        SystemParams p = SystemParams::forMode(mode, cores, chips);
        p.protocol = protocol;
        if (farMemLat > 0) {
            p.farMemLatency = farMemLat;
            if (farMemBw > 0)
                p.farMemBytesPerCycle = farMemBw;
        }
        return p;
    }
    // The mode and protocol axes are always authoritative; the core
    // count is NOT stamped onto an override, because the override's
    // mesh and memory controller placement were derived for its own
    // core count — validateExperiment rejects a mismatch instead of
    // constructing a mis-shaped system.
    SystemParams p = *paramsOverride;
    p.mode = mode;
    p.protocol = protocol;
    return p;
}

std::string
ExperimentSpec::label() const
{
    char buf[96];
    if (chips > 1)
        std::snprintf(buf, sizeof(buf), "/%uc/%uchip/x%.2f", cores,
                      chips, scale);
    else
        std::snprintf(buf, sizeof(buf), "/%uc/x%.2f", cores, scale);
    std::string out =
        workload + "/" + systemModeName(mode);
    if (protocol != ProtocolFactory::defaultName())
        out += "/" + protocol;
    out += buf;
    if (farMemLat > 0) {
        char fm[48];
        if (farMemBw > 0)
            std::snprintf(fm, sizeof(fm), "/fm%llub%u",
                          static_cast<unsigned long long>(farMemLat),
                          farMemBw);
        else
            std::snprintf(fm, sizeof(fm), "/fm%llu",
                          static_cast<unsigned long long>(farMemLat));
        out += fm;
    }
    if (!wparams.empty())
        out += "{" + wparams.render() + "}";
    if (!variant.empty())
        out += "+" + variant;
    return out;
}

std::vector<std::string>
validateExperiment(const ExperimentSpec &spec,
                   const WorkloadRegistry &reg)
{
    std::vector<std::string> errs;
    if (spec.workload.empty()) {
        errs.push_back("no workload set (use .workload(name))");
    } else if (const WorkloadSpec *ws = reg.find(spec.workload)) {
        for (const std::string &e :
             ws->validateParams(spec.wparams))
            errs.push_back(e);
    } else {
        errs.push_back("unknown workload '" + spec.workload +
                       "'; known workloads: " + reg.namesJoined());
    }
    if (!ProtocolFactory::global().contains(spec.protocol))
        errs.push_back("unknown protocol '" + spec.protocol +
                       "'; known protocols: " +
                       ProtocolFactory::global().namesJoined());
    const auto cores_err = Topology::checkCores(spec.cores);
    const auto sys_err =
        Topology::checkSystem(spec.cores, spec.chips);
    if (sys_err && !spec.paramsOverride)
        errs.push_back(*sys_err);
    if (spec.farMemLat > 0 && spec.chips < 2)
        errs.push_back("the pooled far-memory tier needs a "
                       "multi-chip fabric (chips >= 2)");
    if (!(spec.scale > 0.0) || !std::isfinite(spec.scale))
        errs.push_back("workload scale must be positive and finite");

    if (spec.paramsOverride) {
        // An override carries its own topology; it must have been
        // built for exactly this core count (resolvedParams no
        // longer stamps numCores — see the comment there).
        const SystemParams &p = *spec.paramsOverride;
        if (spec.cores == 0 || spec.cores > Topology::maxCores)
            errs.push_back(*cores_err);
        else if (p.numCores != spec.cores)
            errs.push_back(
                "params override was built for " +
                std::to_string(p.numCores) + " cores but the spec "
                "says " + std::to_string(spec.cores) +
                "; rebuild it with SystemParams::forMode(mode, " +
                std::to_string(spec.cores) + ")");
        if (p.mesh.chips != spec.chips)
            errs.push_back(
                "params override was built for " +
                std::to_string(p.mesh.chips) + " chip(s) but the "
                "spec says " + std::to_string(spec.chips));
        const std::uint64_t tiles =
            std::uint64_t(p.mesh.width) * p.mesh.height *
            (p.mesh.chips ? p.mesh.chips : 1);
        if (tiles < p.numCores)
            errs.push_back(
                "mesh " + std::to_string(p.mesh.width) + "x" +
                std::to_string(p.mesh.height) + " is smaller than " +
                std::to_string(p.numCores) + " cores");
        if (p.spmBytes == 0 || !isPow2(p.spmBytes))
            errs.push_back("spmBytes must be a non-zero power of "
                           "two, got " + std::to_string(p.spmBytes));
        if (p.mcTiles.empty())
            errs.push_back("at least one memory controller tile is "
                           "required");
        for (CoreId t : p.mcTiles)
            if (t >= tiles)
                errs.push_back("memory controller tile " +
                               std::to_string(t) +
                               " is outside the mesh");
    }
    return errs;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec, const WorkloadRegistry &reg,
              const PreparedProgram *prepared)
{
    const std::vector<std::string> errs =
        validateExperiment(spec, reg);
    if (!errs.empty()) {
        std::string msg =
            "invalid experiment " + spec.label() + ":";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        fatal(msg);
    }

    ExperimentResult out;
    out.spec = spec;
    out.params = spec.resolvedParams();

    PreparedProgram local;
    if (!prepared) {
        const ProgramDecl prog = reg.build(
            spec.workload, spec.cores, spec.scale, spec.wparams);
        local = prepareProgram(prog, spec.cores,
                               out.params.spmBytes);
        prepared = &local;
    }

    System sys(out.params);
    if (!sys.run(makeSources(*prepared, spec.cores, spec.mode,
                             out.params.spmBytes)))
        fatal("experiment " + spec.label() +
              ": simulation did not complete (deadlock guard)");
    out.results = sys.results();
    out.stats = snapshotStats(sys);
    return out;
}

ExperimentBuilder &
ExperimentBuilder::tweak(std::function<void(SystemParams &)> fn)
{
    if (!fn)
        fatal("ExperimentBuilder: null tweak function");
    tweaks.push_back(std::move(fn));
    return *this;
}

ExperimentSpec
ExperimentBuilder::spec() const
{
    ExperimentSpec out = s;
    // Validate before resolving: resolvedParams derives a topology,
    // which is only defined for tileable core counts.
    std::vector<std::string> errs = validateExperiment(out, *reg);
    if (errs.empty() && !tweaks.empty()) {
        SystemParams p = out.resolvedParams();
        for (const auto &fn : tweaks)
            fn(p);
        out.paramsOverride = p;
        errs = validateExperiment(out, *reg);
    }
    if (!errs.empty()) {
        std::string msg = "invalid experiment spec:";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        fatal(msg);
    }
    return out;
}

} // namespace spmcoh
