/**
 * @file
 * spmcoh_run: the single CLI driver for the paper's figures and
 * for ad-hoc studies. Declares a sweep from command-line axes or
 * from a named figure preset, runs it (optionally on a worker
 * pool), and streams the results through a table/CSV/JSON sink to
 * stdout or a file. A figure preset in table format prints the
 * figure-shaped table instead:
 *
 *   spmcoh_run --figure=fig9 --jobs=auto
 *   spmcoh_run --figure=fig8 --format=json --out=fig8.json
 *   spmcoh_run --workload=CG --cores=8 --format=json
 *   spmcoh_run --workload=all --mode=cache,hybrid-proto --jobs=8
 *   spmcoh_run --workload=CG,IS --filter-entries=4,16,48,128
 *   spmcoh_run --workload=CG --mode=hybrid-proto --cores=1024
 *
 * Core counts are validated at parse time against the topology
 * layer (Topology::checkCores): each count must tile a mesh, up to
 * 4096 cores on a 64x64 grid.
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "driver/Figures.hh"
#include "runtime/PhaseSchedule.hh"
#include "sim/Logging.hh"

using namespace spmcoh;

int
main(int argc, char **argv)
{
    const std::string prog = argc > 0 ? argv[0] : "spmcoh_run";
    try {
        const CliOptions opt =
            parseCli(std::vector<std::string>(argv + 1, argv + argc));

        if (opt.help) {
            std::fputs(cliUsage(prog).c_str(), stdout);
            return 0;
        }
        if (opt.listWorkloads) {
            const WorkloadRegistry &reg = WorkloadRegistry::global();
            for (const std::string &w : reg.names()) {
                const WorkloadSpec &s = reg.spec(w);
                std::printf("%s%s%s\n", w.c_str(),
                            s.description.empty() ? "" : " - ",
                            s.description.c_str());
                // Phase-graph shape of the default-parameter program
                // on the Table 1 machine (flat workloads show their
                // degenerate chain).
                try {
                    const ProgramDecl d = reg.build(w, 64);
                    const PhaseSchedule sched(d, 64);
                    std::printf(
                        "  phase graph: %u kernel%s, %u core "
                        "group%s, %u dependency edge%s\n",
                        sched.numKernels(),
                        sched.numKernels() == 1 ? "" : "s",
                        sched.numGroups(),
                        sched.numGroups() == 1 ? "" : "s",
                        sched.numEdges(),
                        sched.numEdges() == 1 ? "" : "s");
                } catch (const FatalError &) {
                    std::printf("  phase graph: n/a at 64 cores\n");
                }
                for (const ParamSpec &p : s.params)
                    std::printf(
                        "  --wparam=%s=V  %s (default %g, "
                        "range [%g, %g])\n",
                        p.name.c_str(), p.description.c_str(),
                        p.def, p.min, p.max);
            }
            return 0;
        }
        if (opt.listProtocols) {
            const ProtocolFactory &pf = ProtocolFactory::global();
            for (const std::string &n : pf.names()) {
                const CoherenceProtocol &cp = pf.get(n);
                std::printf("%s%s - %s\n", n.c_str(),
                            n == ProtocolFactory::defaultName()
                                ? " (default)" : "",
                            cp.description().c_str());
            }
            return 0;
        }

        std::ofstream file;
        if (!opt.outFile.empty()) {
            file.open(opt.outFile);
            if (!file)
                fatal("cannot open output file '" + opt.outFile +
                      "'");
        }
        std::ostream &os = file.is_open()
            ? static_cast<std::ostream &>(file)
            : std::cout;

        SweepRunner runner(WorkloadRegistry::global(), opt.jobs);
        if (opt.figure && opt.format == ResultFormat::Table) {
            const std::vector<ExperimentResult> results =
                opt.figure->args.empty()
                    ? std::vector<ExperimentResult>{}
                    : runner.run(opt.sweep);
            opt.figure->render(os, opt.sweep, results);
            return 0;
        }
        const auto sink =
            makeResultSink(opt.format, os, opt.withStats);
        runner.run(opt.sweep, sink.get(), opt.effectiveTitle());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
        return 2;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
        return 3;
    }
}
