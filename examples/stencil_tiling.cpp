/**
 * @file
 * Stencil workload (the kind MG's intro motivates): many streamed
 * grids tiled through the SPMs. Drives the *registered* "stencil"
 * workload — the same one `spmcoh_run --workload=stencil` sweeps —
 * through the cache-based and hybrid modes and prints the speedup
 * plus traffic/energy effects: a one-benchmark miniature of
 * Figs. 9-11. Argument parsing is the shared spmcoh_run CLI
 * (`parseCli`); the workload and mode axes are fixed by the example
 * (that comparison is its point), everything else composes:
 *
 * Run: ./stencil_tiling [cores] [--cores=N] [--scale=X]
 *          [--wparam=grids=9] [--wparam=sectionKB=32]
 *          [--format=table|csv|json] [--jobs=N|auto]
 */

#include <cctype>
#include <cstdio>
#include <iostream>

#include "driver/Cli.hh"
#include "driver/Driver.hh"

using namespace spmcoh;

int
main(int argc, char **argv)
{
    const std::string prog = argc > 0 ? argv[0] : "stencil_tiling";

    // The example fixes the workload and the mode comparison; every
    // other axis comes from the shared CLI. A bare leading number is
    // kept as the historical `./stencil_tiling 32` core count.
    std::vector<std::string> args{"--workload=stencil",
                                  "--mode=cache,hybrid-proto"};
    bool saw_cores = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (!a.empty() &&
            std::isdigit(static_cast<unsigned char>(a[0])))
            a = "--cores=" + a;
        // The pairing below splits the results at the fixed
        // cache/hybrid mode boundary, and output always goes to
        // stdout: reject flags that would silently break or be
        // ignored rather than compose.
        for (const char *fixed :
             {"--workload=", "--mode=", "--out=", "--title=",
              "--list-workloads"}) {
            if (a.compare(0, std::string(fixed).size(), fixed) == 0) {
                std::fprintf(stderr,
                             "%s: %s is fixed by this example; use "
                             "spmcoh_run for free-form sweeps\n",
                             prog.c_str(), a.c_str());
                return 2;
            }
        }
        if (a.compare(0, 8, "--cores=") == 0)
            saw_cores = true;
        args.push_back(std::move(a));
    }
    if (!saw_cores)
        args.push_back("--cores=16");

    try {
        const CliOptions opt = parseCli(args);
        if (opt.help) {
            std::fputs(cliUsage(prog).c_str(), stdout);
            return 0;
        }

        SweepRunner runner(WorkloadRegistry::global(), opt.jobs);
        const auto sink = opt.format != ResultFormat::Table
            ? makeResultSink(opt.format, std::cout, opt.withStats)
            : nullptr;
        const auto results =
            runner.run(opt.sweep, sink.get(), "stencil tiling");
        if (sink)
            return 0;

        // expand() nests modes outside cores/scales/params, so the
        // results split into a cache-based half and a hybrid half
        // with pairwise-matching points.
        const std::size_t half = results.size() / 2;
        for (std::size_t i = 0; i < half; ++i) {
            const RunResults &c = results[i].results;
            const RunResults &h = results[i + half].results;
            std::printf("%s vs %s:\n",
                        results[i].spec.label().c_str(),
                        results[i + half].spec.label().c_str());
            std::printf("  cache-based : %10llu cycles, %8llu "
                        "packets, %.1f uJ\n",
                        static_cast<unsigned long long>(c.cycles),
                        static_cast<unsigned long long>(
                            c.traffic.totalPackets()),
                        c.energy.total() / 1000.0);
            std::printf("  hybrid      : %10llu cycles, %8llu "
                        "packets, %.1f uJ\n",
                        static_cast<unsigned long long>(h.cycles),
                        static_cast<unsigned long long>(
                            h.traffic.totalPackets()),
                        h.energy.total() / 1000.0);
            std::printf("  speedup %.3fx, traffic ratio %.3f, "
                        "energy ratio %.3f\n",
                        double(c.cycles) / double(h.cycles),
                        double(h.traffic.totalPackets()) /
                            double(c.traffic.totalPackets()),
                        h.energy.total() / c.energy.total());
            std::printf("  hybrid work phase share: %.1f%% of core "
                        "cycles\n",
                        100.0 * double(h.phaseCycles[2]) /
                            double(h.phaseCycles[0] +
                                   h.phaseCycles[1] +
                                   h.phaseCycles[2]));
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
        return 2;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
        return 3;
    }
}
