/**
 * @file
 * Command-line front end for the experiment driver: parses the
 * spmcoh_run argument surface (workload/mode/cores/scale sweep
 * axes, variant axes, figure presets, output format/file, worker
 * count) into a validated SweepSpec + options bundle. Kept
 * independent of main() so the parser is unit-testable and
 * reusable by other tools.
 */

#ifndef SPMCOH_DRIVER_CLI_HH
#define SPMCOH_DRIVER_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/ResultSink.hh"
#include "driver/SweepRunner.hh"

namespace spmcoh
{

struct Figure;

/** Parsed spmcoh_run invocation. */
struct CliOptions
{
    /** Sweep axes assembled from --workload/--mode/--cores/--scale,
     *  the workload-parameter axes (--wparam=key=v1,v2, repeatable)
     *  and the variant axes (--filter-entries, --prefetcher). */
    SweepSpec sweep;
    ResultFormat format = ResultFormat::Table;
    /** Worker threads; 1 = serial, 0 = hardware parallelism. */
    std::uint32_t jobs = 1;
    std::string outFile;  ///< empty = stdout
    std::string title;    ///< empty = generated from the axes
    /** --figure preset; its axes and title are in sweep/title. */
    const Figure *figure = nullptr;
    bool withStats = true;
    bool help = false;
    bool listWorkloads = false;
    bool listProtocols = false;

    /** The title to report: --title, or one built from the axes. */
    std::string effectiveTitle() const;
};

/** Parse a whole-string unsigned integer; nullopt when malformed. */
std::optional<std::uint64_t> parseUint(const std::string &s);

/** "a,b,c" -> {"a", "b", "c"}. Empty input gives an empty list. */
std::vector<std::string> splitList(const std::string &s);

/** Full usage text for --help and error hints. */
std::string cliUsage(const std::string &prog);

/**
 * Parse an spmcoh_run argument vector (argv[0] excluded). Throws
 * FatalError listing every problem found (unknown flags, bad
 * numbers, unknown workloads/modes/formats) when the invocation is
 * invalid. --workload is required unless --figure, --help,
 * --list-workloads or --list-protocols is present; "--workload=all"
 * expands to every registered name. --figure=NAME stands for its
 * preset's axis arguments and title; only --jobs, --format, --out
 * and --no-stats may be given next to it.
 */
CliOptions
parseCli(const std::vector<std::string> &args,
         const WorkloadRegistry &reg = WorkloadRegistry::global());

} // namespace spmcoh

#endif // SPMCOH_DRIVER_CLI_HH
