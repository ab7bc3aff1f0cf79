/**
 * @file
 * String-keyed workload registry: experiments name their workload
 * ("CG", "stencil", ...) instead of hard-coding enums at every call
 * site. Entries are WorkloadSpecs — a name, a description, and the
 * declared, typed parameters the workload accepts — built from a
 * WorkloadParams key→value map that is validated against the spec
 * (unknown keys, out-of-range values, non-integral values for
 * integer parameters are all rejected with the legal surface named).
 *
 * The six NAS models of Table 2 and the kernel workloads
 * (registerKernelWorkloads: stencil, gather, pchase, reduction,
 * transpose, the pipeline/contend/graphwalk phase graphs and the
 * cross-chip xpipeline) come pre-registered in the global registry;
 * examples and tests register their own specs with add().
 */

#ifndef SPMCOH_DRIVER_WORKLOADREGISTRY_HH
#define SPMCOH_DRIVER_WORKLOADREGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "compiler/LoopIr.hh"

namespace spmcoh
{

/** Value domain of one workload parameter. */
enum class ParamType : std::uint8_t
{
    UInt,  ///< non-negative integer (counts, sizes, 0/1 switches)
    Real,  ///< real number (fractions, ratios)
};

/** One declared, typed workload parameter. */
struct ParamSpec
{
    std::string name;
    std::string description;
    ParamType type = ParamType::UInt;
    double def = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * A key→value assignment of workload parameters. Keys are kept
 * sorted, so render() — used in experiment labels and program cache
 * keys — is deterministic whatever the insertion order.
 */
class WorkloadParams
{
  public:
    WorkloadParams() = default;

    WorkloadParams &
    set(const std::string &key, double value)
    {
        vals[key] = value;
        return *this;
    }

    bool has(const std::string &key) const
    { return vals.count(key) != 0; }

    /** Value of @p key; fatal when absent (resolve() fills defaults). */
    double get(const std::string &key) const;

    /** Value of @p key rounded to an unsigned integer. */
    std::uint64_t
    getUInt(const std::string &key) const
    {
        return static_cast<std::uint64_t>(get(key));
    }

    bool empty() const { return vals.empty(); }

    /** "k1=v1,k2=v2" (sorted by key; "" when empty). */
    std::string render() const;

    const std::map<std::string, double> &all() const { return vals; }

    bool operator==(const WorkloadParams &) const = default;

  private:
    std::map<std::string, double> vals;
};

/** Parameterized program factory (params arrive fully resolved). */
using WorkloadSpecFactory = std::function<ProgramDecl(
    std::uint32_t cores, double scale, const WorkloadParams &params)>;

/** One registry entry: identity, parameter surface, factory. */
struct WorkloadSpec
{
    std::string name;
    std::string description;
    std::vector<ParamSpec> params;
    WorkloadSpecFactory factory;

    /** Declared parameter named @p pname, or null. */
    const ParamSpec *param(const std::string &pname) const;

    /**
     * Every problem in @p p against the declared parameters, one
     * message each: unknown keys (listing the legal ones), values
     * outside [min, max], non-integral values for UInt parameters.
     */
    std::vector<std::string>
    validateParams(const WorkloadParams &p) const;

    /**
     * Defaults overlaid with @p p; every declared parameter is
     * present in the result. Fatal listing validateParams() output
     * when @p p is invalid.
     */
    WorkloadParams resolve(const WorkloadParams &p) const;
};

class WorkloadRegistry
{
  public:
    /** An empty registry (for custom workload sets). */
    WorkloadRegistry() = default;

    /** The process-wide registry, NAS + kernel workloads built in. */
    static WorkloadRegistry &global();

    /** Register @p spec; fatal on duplicates or a null factory. */
    void add(WorkloadSpec spec);

    bool contains(const std::string &name) const;

    /** The spec registered under @p name; fatal when unknown. */
    const WorkloadSpec &spec(const std::string &name) const;

    /** The spec registered under @p name, or null. */
    const WorkloadSpec *find(const std::string &name) const;

    /**
     * Build the named workload with @p params resolved against its
     * spec. Fatal with the list of known names when @p name is not
     * registered, or with the parameter problems when @p params do
     * not fit the spec.
     */
    ProgramDecl build(const std::string &name, std::uint32_t cores,
                      double scale = 1.0,
                      const WorkloadParams &params = {}) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** "a, b, c" rendering of names() for error messages. */
    std::string namesJoined() const;

  private:
    std::map<std::string, WorkloadSpec> specs;
};

} // namespace spmcoh

#endif // SPMCOH_DRIVER_WORKLOADREGISTRY_HH
