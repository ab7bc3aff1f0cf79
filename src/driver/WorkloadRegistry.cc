/**
 * @file
 * Workload registry implementation: parameter validation and
 * pre-registration of the NAS models and kernel workloads.
 */

#include "driver/WorkloadRegistry.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/Logging.hh"
#include "workloads/Kernels.hh"
#include "workloads/NasBenchmarks.hh"

namespace spmcoh
{

namespace
{

/**
 * Round-trip rendering of a parameter value: "%g" when it re-parses
 * exactly ("7", "0.5" — the common case), full precision otherwise.
 * render() feeds experiment labels and the prepared-program cache
 * key, so two distinct values must never render identically.
 */
std::string
renderValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    if (std::strtod(buf, nullptr) != v)
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
paramNamesJoined(const std::vector<ParamSpec> &params)
{
    std::string out;
    for (const ParamSpec &p : params) {
        if (!out.empty())
            out += ", ";
        out += p.name;
    }
    return out.empty() ? "(none)" : out;
}

} // namespace

double
WorkloadParams::get(const std::string &key) const
{
    auto it = vals.find(key);
    if (it == vals.end())
        fatal("WorkloadParams: no value for '" + key +
              "' (factories must receive resolve()d params)");
    return it->second;
}

std::string
WorkloadParams::render() const
{
    std::string out;
    for (const auto &kv : vals) {
        if (!out.empty())
            out += ",";
        out += kv.first + "=" + renderValue(kv.second);
    }
    return out;
}

const ParamSpec *
WorkloadSpec::param(const std::string &pname) const
{
    for (const ParamSpec &p : params)
        if (p.name == pname)
            return &p;
    return nullptr;
}

std::vector<std::string>
WorkloadSpec::validateParams(const WorkloadParams &p) const
{
    std::vector<std::string> errs;
    for (const auto &kv : p.all()) {
        const ParamSpec *ps = param(kv.first);
        if (!ps) {
            errs.push_back("workload '" + name +
                           "' has no parameter '" + kv.first +
                           "'; declared parameters: " +
                           paramNamesJoined(params));
            continue;
        }
        const double v = kv.second;
        if (!std::isfinite(v) || v < ps->min || v > ps->max) {
            errs.push_back(
                "parameter '" + kv.first + "'=" + renderValue(v) +
                " is outside [" + renderValue(ps->min) + ", " +
                renderValue(ps->max) + "] for workload '" + name +
                "'");
            continue;
        }
        if (ps->type == ParamType::UInt &&
            v != std::floor(v))
            errs.push_back("parameter '" + kv.first + "'=" +
                           renderValue(v) +
                           " must be an integer for workload '" +
                           name + "'");
    }
    return errs;
}

WorkloadParams
WorkloadSpec::resolve(const WorkloadParams &p) const
{
    const std::vector<std::string> errs = validateParams(p);
    if (!errs.empty()) {
        std::string msg =
            "invalid parameters for workload '" + name + "':";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        fatal(msg);
    }
    WorkloadParams out;
    for (const ParamSpec &ps : params)
        out.set(ps.name, p.has(ps.name) ? p.get(ps.name) : ps.def);
    return out;
}

WorkloadRegistry &
WorkloadRegistry::global()
{
    static WorkloadRegistry reg = [] {
        WorkloadRegistry r;
        for (NasBench b : allNasBenchmarks()) {
            WorkloadSpec s;
            s.name = nasBenchName(b);
            s.description = std::string("NAS ") + nasBenchName(b) +
                            " synthetic model (Table 2)";
            s.factory = [b](std::uint32_t cores, double scale,
                            const WorkloadParams &) {
                return buildNasBenchmark(b, cores, scale);
            };
            r.add(std::move(s));
        }
        registerKernelWorkloads(r);
        return r;
    }();
    return reg;
}

void
WorkloadRegistry::add(WorkloadSpec spec)
{
    if (spec.name.empty())
        fatal("WorkloadRegistry: workload name must not be empty");
    if (!spec.factory)
        fatal("WorkloadRegistry: null factory for '" + spec.name +
              "'");
    if (specs.count(spec.name))
        fatal("WorkloadRegistry: '" + spec.name +
              "' already registered");
    for (const ParamSpec &p : spec.params) {
        if (p.name.empty())
            fatal("WorkloadRegistry: '" + spec.name +
                  "' declares an unnamed parameter");
        if (!(p.min <= p.def && p.def <= p.max))
            fatal("WorkloadRegistry: '" + spec.name + "' parameter '" +
                  p.name + "' default is outside its own range");
    }
    const std::string name = spec.name;
    specs.emplace(name, std::move(spec));
}

bool
WorkloadRegistry::contains(const std::string &name) const
{
    return specs.count(name) != 0;
}

const WorkloadSpec *
WorkloadRegistry::find(const std::string &name) const
{
    auto it = specs.find(name);
    return it == specs.end() ? nullptr : &it->second;
}

const WorkloadSpec &
WorkloadRegistry::spec(const std::string &name) const
{
    const WorkloadSpec *s = find(name);
    if (!s)
        fatal("WorkloadRegistry: unknown workload '" + name +
              "'; known workloads: " + namesJoined());
    return *s;
}

ProgramDecl
WorkloadRegistry::build(const std::string &name, std::uint32_t cores,
                        double scale,
                        const WorkloadParams &params) const
{
    const WorkloadSpec &s = spec(name);
    return s.factory(cores, scale, s.resolve(params));
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(specs.size());
    for (const auto &kv : specs)
        out.push_back(kv.first);
    return out;
}

std::string
WorkloadRegistry::namesJoined() const
{
    std::string out;
    for (const auto &kv : specs) {
        if (!out.empty())
            out += ", ";
        out += kv.first;
    }
    return out.empty() ? "(none)" : out;
}

} // namespace spmcoh
