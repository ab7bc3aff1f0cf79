/**
 * @file
 * spmcoh_run argument parsing.
 */

#include "driver/Cli.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "cpu/CoreModel.hh"
#include "driver/Figures.hh"
#include "protocols/ProtocolFactory.hh"
#include "sim/Logging.hh"
#include "system/Topology.hh"

namespace spmcoh
{

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            if (start < s.size())
                out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::string
CliOptions::effectiveTitle() const
{
    if (!title.empty())
        return title;
    std::string t = "spmcoh_run:";
    for (const std::string &w : sweep.workloads)
        t += " " + w;
    t += " |";
    for (SystemMode m : sweep.modes)
        t += std::string(" ") + systemModeName(m);
    return t;
}

std::string
cliUsage(const std::string &prog)
{
    std::string figs;
    for (const Figure &f : figures())
        figs += "    " + std::string(f.name) + "\n        " +
                f.description + "\n";
    return "usage: " + prog + " --workload=NAME[,NAME...] [options]\n"
        "       " + prog + " --figure=NAME [options]\n"
        "\n"
        "Runs the cartesian product of the sweep axes through the\n"
        "experiment driver and streams results to a ResultSink.\n"
        "\n"
        "paper figures and tables:\n"
        "  --figure=NAME     run the preset's sweep and print the\n"
        "                    figure (--format=table) or export it;\n"
        "                    only --jobs, --format, --out and\n"
        "                    --no-stats may be given with it. NAME:\n" +
        figs +
        "\n"
        "sweep axes:\n"
        "  --workload=LIST   workload names, or 'all' for every\n"
        "                    registered workload (required)\n"
        "  --mode=LIST       cache | hybrid-ideal | hybrid-proto\n"
        "                    (default: hybrid-proto)\n"
        "  --protocol=LIST   coherence protocols (--list-protocols\n"
        "                    for names; default: spm-hybrid)\n"
        "  --cores=LIST      core counts (default: 64); each count\n"
        "                    must tile a mesh (64, 128, 256, 512,\n"
        "                    1024, ..., up to 4096)\n"
        "  --chips=LIST      chip counts (default: 1); the cores\n"
        "                    split evenly over N single-mesh chips\n"
        "                    joined by inter-chip links and a global\n"
        "                    home agent\n"
        "  --scale=LIST      workload scale factors (default: 1.0)\n"
        "  --wparam=K=LIST   workload parameter K (declared surface\n"
        "                    per workload: --list-workloads); a comma\n"
        "                    list adds one sweep point per value, and\n"
        "                    the flag repeats for several parameters\n"
        "                    (cartesian)\n"
        "\n"
        "multi-chip memory (applied to chips >= 2 points only):\n"
        "  --far-mem-lat=N   pooled far-memory access latency in\n"
        "                    ticks, at most 1000000; 0 disables the\n"
        "                    far tier (default 0)\n"
        "  --far-mem-bw=N    pooled far-memory bytes per cycle\n"
        "                    (default: model default)\n"
        "\n"
        "variant axes (cartesian with each other):\n"
        "  --filter-entries=LIST  coherence filter capacities; adds\n"
        "                         one 'filterN' variant per value\n"
        "  --prefetcher=LIST      on | off; adds pf-on / pf-off\n"
        "                         variants toggling the L1D stride\n"
        "                         prefetcher\n"
        "\n"
        "execution and output:\n"
        "  --jobs=N          run sweep points on N worker threads —\n"
        "                    across-run parallelism; each point is\n"
        "                    still one simulation ('auto' = hardware\n"
        "                    threads; default 1)\n"
        "  --format=F        table | csv | json (default: table)\n"
        "  --out=FILE        write results to FILE instead of stdout\n"
        "  --title=STR       report title (default: generated)\n"
        "  --no-stats        omit per-component stats from JSON\n"
        "  --list-workloads  print registered workload names\n"
        "  --list-protocols  print registered coherence protocols\n"
        "  --help            this text\n";
}

std::optional<std::uint64_t>
parseUint(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-')
        return std::nullopt;
    return v;
}

namespace
{

/** Parse a whole-string double; nullopt when malformed. */
std::optional<double>
parseDouble(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size())
        return std::nullopt;
    return v;
}

/** Value of "--flag=value" when @p arg starts with "--flag=". */
std::optional<std::string>
flagValue(const std::string &arg, const std::string &flag)
{
    const std::string prefix = flag + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return std::nullopt;
    return arg.substr(prefix.size());
}

} // namespace

CliOptions
parseCli(const std::vector<std::string> &given,
         const WorkloadRegistry &reg)
{
    CliOptions opt;
    std::vector<std::string> errs;

    // --figure=NAME stands for its preset's axis arguments and title,
    // parsed below like any others. The preset fixes those, so only
    // the execution and output flags may come with it.
    std::string figureArg;
    std::vector<std::string> rest;
    for (const std::string &arg : given) {
        const auto v = flagValue(arg, "--figure");
        if (!v) {
            rest.push_back(arg);
            continue;
        }
        if (!figureArg.empty())
            errs.push_back("--figure given twice");
        figureArg = arg;
        opt.figure = findFigure(*v);
        if (!opt.figure) {
            std::string known;
            for (const Figure &f : figures())
                known += (known.empty() ? "" : ", ") +
                         std::string(f.name);
            errs.push_back("unknown figure '" + *v +
                           "'; known figures: " + known);
        }
    }
    std::vector<std::string> args;
    if (opt.figure) {
        args = opt.figure->args;
        args.push_back(std::string("--title=") + opt.figure->title);
    }
    for (const std::string &arg : rest) {
        const bool free = arg == "--no-stats" || arg == "--help" ||
            arg == "-h" || arg == "--list-workloads" ||
            arg == "--list-protocols" || flagValue(arg, "--jobs") ||
            flagValue(arg, "--format") || flagValue(arg, "--out");
        if (figureArg.empty() || free)
            args.push_back(arg);
        else
            errs.push_back(figureArg + " fixes the sweep axes and "
                           "title; drop '" + arg + "'");
    }

    std::vector<std::pair<std::string, std::vector<double>>>
        wparamAxes;
    bool sawWorkload = false;

    opt.sweep.modes.clear();
    opt.sweep.coreCounts.clear();
    opt.sweep.scales.clear();

    for (const std::string &arg : args) {
        std::optional<std::string> v;
        if (arg == "--help" || arg == "-h") {
            opt.help = true;
        } else if (arg == "--list-workloads") {
            opt.listWorkloads = true;
        } else if (arg == "--list-protocols") {
            opt.listProtocols = true;
        } else if (arg == "--no-stats") {
            opt.withStats = false;
        } else if ((v = flagValue(arg, "--workload"))) {
            sawWorkload = true;
            for (const std::string &w : splitList(*v)) {
                if (w == "all") {
                    for (const std::string &n : reg.names())
                        opt.sweep.workloads.push_back(n);
                } else if (!reg.contains(w)) {
                    errs.push_back("unknown workload '" + w +
                                   "'; known workloads: " +
                                   reg.namesJoined());
                } else {
                    opt.sweep.workloads.push_back(w);
                }
            }
        } else if ((v = flagValue(arg, "--mode"))) {
            for (const std::string &m : splitList(*v)) {
                const auto mode = systemModeFromName(m);
                if (!mode)
                    errs.push_back(
                        "unknown mode '" + m + "' (expected cache, "
                        "hybrid-ideal or hybrid-proto)");
                else
                    opt.sweep.modes.push_back(*mode);
            }
        } else if ((v = flagValue(arg, "--protocol"))) {
            for (const std::string &pn : splitList(*v)) {
                if (!ProtocolFactory::global().contains(pn))
                    errs.push_back(
                        "unknown protocol '" + pn +
                        "'; known protocols: " +
                        ProtocolFactory::global().namesJoined());
                else
                    opt.sweep.protocols.push_back(pn);
            }
        } else if ((v = flagValue(arg, "--cores"))) {
            for (const std::string &c : splitList(*v)) {
                const auto n = parseUint(c);
                if (!n || *n == 0 ||
                    *n > std::numeric_limits<std::uint32_t>::max()) {
                    errs.push_back("bad core count '" + c + "'");
                    continue;
                }
                const auto count = static_cast<std::uint32_t>(*n);
                if (const auto err = Topology::checkCores(count))
                    errs.push_back("--cores=" + c + ": " + *err);
                else
                    opt.sweep.coreCounts.push_back(count);
            }
        } else if ((v = flagValue(arg, "--chips"))) {
            opt.sweep.chipCounts.clear();
            for (const std::string &c : splitList(*v)) {
                const auto n = parseUint(c);
                if (!n || *n == 0 ||
                    *n > std::numeric_limits<std::uint32_t>::max()) {
                    errs.push_back("bad chip count '" + c + "'");
                    continue;
                }
                // The per-chip tiling also depends on the core
                // count, so full validation waits for expand().
                opt.sweep.chipCounts.push_back(
                    static_cast<std::uint32_t>(*n));
            }
            if (opt.sweep.chipCounts.empty())
                errs.push_back("--chips lists no chip counts");
        } else if ((v = flagValue(arg, "--far-mem-lat"))) {
            const auto n = parseUint(*v);
            if (!n)
                errs.push_back("bad far-memory latency '" + *v +
                               "' (expected ticks; 0 disables)");
            else
                opt.sweep.farMemLat = *n;
        } else if ((v = flagValue(arg, "--far-mem-bw"))) {
            const auto n = parseUint(*v);
            if (!n || *n == 0 ||
                *n > std::numeric_limits<std::uint32_t>::max())
                errs.push_back("bad far-memory width '" + *v +
                               "' (expected bytes per cycle)");
            else
                opt.sweep.farMemBw =
                    static_cast<std::uint32_t>(*n);
        } else if ((v = flagValue(arg, "--scale"))) {
            for (const std::string &s : splitList(*v)) {
                const auto x = parseDouble(s);
                if (!x)
                    errs.push_back("bad scale '" + s + "'");
                else
                    opt.sweep.scales.push_back(*x);
            }
        } else if ((v = flagValue(arg, "--wparam"))) {
            const std::size_t eq = v->find('=');
            if (eq == std::string::npos || eq == 0) {
                errs.push_back("bad --wparam '" + *v +
                               "' (expected key=value[,value...])");
                continue;
            }
            const std::string key = v->substr(0, eq);
            bool dup = false;
            for (const auto &axis : wparamAxes)
                dup = dup || axis.first == key;
            if (dup) {
                errs.push_back("--wparam parameter '" + key +
                               "' given twice");
                continue;
            }
            std::vector<double> values;
            for (const std::string &s :
                 splitList(v->substr(eq + 1))) {
                const auto x = parseDouble(s);
                if (!x)
                    errs.push_back("bad --wparam value '" + s +
                                   "' for '" + key + "'");
                else
                    values.push_back(*x);
            }
            if (values.empty())
                errs.push_back("--wparam parameter '" + key +
                               "' lists no values");
            else
                wparamAxes.emplace_back(key, std::move(values));
        } else if ((v = flagValue(arg, "--filter-entries"))) {
            for (const std::string &f : splitList(*v)) {
                const auto n = parseUint(f);
                if (!n || *n == 0 ||
                    *n > std::numeric_limits<std::uint32_t>::max())
                    errs.push_back("bad filter entry count '" + f +
                                   "'");
                else
                    opt.sweep.filterEntries.push_back(
                        static_cast<std::uint32_t>(*n));
            }
        } else if ((v = flagValue(arg, "--prefetcher"))) {
            for (const std::string &p : splitList(*v)) {
                if (p == "on")
                    opt.sweep.prefetcher.push_back(true);
                else if (p == "off")
                    opt.sweep.prefetcher.push_back(false);
                else
                    errs.push_back("bad prefetcher setting '" + p +
                                   "' (expected on or off)");
            }
        } else if ((v = flagValue(arg, "--jobs"))) {
            if (*v == "auto") {
                opt.jobs = 0;
            } else {
                const auto n = parseUint(*v);
                if (!n || *n == 0 ||
                    *n > std::numeric_limits<std::uint32_t>::max())
                    errs.push_back("bad job count '" + *v +
                                   "' (expected a positive integer "
                                   "or 'auto')");
                else
                    opt.jobs = static_cast<std::uint32_t>(*n);
            }
        } else if ((v = flagValue(arg, "--format"))) {
            const auto f = resultFormatFromName(*v);
            if (!f)
                errs.push_back("unknown format '" + *v +
                               "' (expected table, csv or json)");
            else
                opt.format = *f;
        } else if ((v = flagValue(arg, "--out"))) {
            if (v->empty())
                errs.push_back("--out needs a file name");
            else
                opt.outFile = *v;
        } else if ((v = flagValue(arg, "--title"))) {
            opt.title = *v;
        } else {
            errs.push_back("unknown argument '" + arg + "'");
        }
    }

    if (opt.help || opt.listWorkloads || opt.listProtocols)
        return opt;

    if (opt.figure && opt.figure->args.empty() &&
        opt.format != ResultFormat::Table)
        errs.push_back(figureArg + " runs no simulation and prints "
                       "only as a table; drop --format");
    if (!sawWorkload && figureArg.empty())
        errs.push_back("no workload set (use --workload=NAME, or "
                       "--workload=all)");
    else if (sawWorkload && opt.sweep.workloads.empty())
        errs.push_back("--workload lists no workloads");

    if (opt.sweep.farMemLat > 0) {
        // expand() drops the far tier from single-chip points, so a
        // sweep with no multi-chip point would silently ignore it.
        bool multi = false;
        for (std::uint32_t ch : opt.sweep.chipCounts)
            multi = multi || ch > 1;
        if (!multi)
            errs.push_back("--far-mem-lat needs a chips >= 2 point "
                           "on the --chips axis");
    }

    if (opt.sweep.modes.empty())
        opt.sweep.modes.push_back(SystemMode::HybridProto);
    if (opt.sweep.coreCounts.empty())
        opt.sweep.coreCounts.push_back(64);
    if (opt.sweep.scales.empty())
        opt.sweep.scales.push_back(1.0);
    if (!wparamAxes.empty())
        opt.sweep.paramPoints = expandParamAxes(wparamAxes);

    if (!errs.empty()) {
        std::string msg = "invalid spmcoh_run invocation:";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        msg += "\n(run with --help for usage)";
        fatal(msg);
    }
    return opt;
}

} // namespace spmcoh
