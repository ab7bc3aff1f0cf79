/**
 * @file
 * Table 2 reproduction: benchmark and memory access characterization
 * of the six workload models, next to the paper's reported values.
 * Workload models are instantiated through the registry, like every
 * experiment run.
 */

#include <cstdio>

#include "BenchUtil.hh"
#include "workloads/NasBenchmarks.hh"

using namespace spmcoh;
using namespace spmcoh::benchutil;

namespace
{

std::string
prettyBytes(std::uint64_t b)
{
    char buf[32];
    if (b == 0)
        std::snprintf(buf, sizeof(buf), "0 B");
    else if (b < 1024)
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(b));
    else if (b < 1024 * 1024)
        std::snprintf(buf, sizeof(buf), "%llu KB",
                      static_cast<unsigned long long>(b / 1024));
    else
        std::snprintf(buf, sizeof(buf), "%.1f MB",
                      double(b) / (1024.0 * 1024.0));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bm = parseArgs(
        argc, argv,
        "Table 2: workload model characterization vs the paper's "
        "reported structure (no simulation runs)");
    (void)bm;

    std::printf("==== Table 2: benchmarks and memory access "
                "characterization ====\n");
    std::printf("(model = this repository's scaled synthetic inputs; "
                "paper = NAS inputs from Table 2)\n\n");
    std::printf("%-5s %-8s | %-28s | %-28s\n", "", "",
                "SPM refs", "Guarded refs");
    std::printf("%-5s %-8s | %8s %8s %10s | %8s %8s %10s\n", "Name",
                "Kernels", "# model", "# paper", "model data",
                "# model", "# paper", "model data");
    for (NasBench b : allNasBenchmarks()) {
        const ProgramDecl prog = WorkloadRegistry::global().build(
            nasBenchName(b), evalCores, evalScale);
        const BenchCharacterization c = characterize(prog);
        const PaperCharacteristics pc = paperTable2(b);
        std::printf("%-5s %-8u | %8u %8u %10s | %8u %8u %10s\n",
                    nasBenchName(b), c.kernels, c.spmRefs, pc.spmRefs,
                    prettyBytes(c.spmDataBytes).c_str(),
                    c.guardedRefs, pc.guardedRefs,
                    prettyBytes(c.guardedDataBytes).c_str());
        if (c.kernels != pc.kernels || c.spmRefs != pc.spmRefs ||
            c.guardedRefs != pc.guardedRefs) {
            std::printf("  MISMATCH against the paper's structure!\n");
            return 1;
        }
    }
    std::printf("\n(paper data sizes: CG 109MB/600KB, EP 1MB/512KB, "
                "FT 269MB/1MB, IS 67MB/2MB, MG 454MB/64B, SP 2MB/0B; "
                "model sizes are scaled down so a 64-core run takes "
                "about a second)\n");
    return 0;
}
