/**
 * @file
 * Quickstart: declare a parallel loop, register it as a named
 * workload, run it on the hybrid system with the SPM coherence
 * protocol through the experiment builder, and print the headline
 * statistics.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "driver/Driver.hh"

using namespace spmcoh;

namespace
{

ProgramDecl
quickstartProgram(std::uint32_t cores)
{
    // A parallel loop: two streamed vectors (SPM candidates) and one
    // pointer-based gather the compiler cannot disambiguate
    // (guarded).
    ProgramDecl prog;
    prog.name = "quickstart";
    prog.seed = 42;

    ArrayDecl a;
    a.id = 0;
    a.name = "a";
    a.bytes = cores * 16 * 1024;   // 16KB per-thread section
    a.threadPrivateSection = true;
    prog.arrays.push_back(a);

    ArrayDecl bvec = a;
    bvec.id = 1;
    bvec.name = "b";
    prog.arrays.push_back(bvec);

    ArrayDecl table;
    table.id = 2;
    table.name = "table";
    table.bytes = 64 * 1024;
    prog.arrays.push_back(table);

    KernelDecl k;
    k.id = 0;
    k.name = "daxpy_gather";
    k.iterations = cores * 2048;
    k.instrsPerIter = 12;
    k.codeBytes = 1024;
    MemRefDecl la;   // load a[i]  -> SPM
    la.id = 0;
    la.arrayId = 0;
    la.pattern = AccessPattern::Strided;
    k.refs.push_back(la);
    MemRefDecl sb = la;  // store b[i] -> SPM
    sb.id = 1;
    sb.arrayId = 1;
    sb.isWrite = true;
    k.refs.push_back(sb);
    MemRefDecl gp;   // *ptr gather -> guarded
    gp.id = 2;
    gp.arrayId = 2;
    gp.pattern = AccessPattern::PointerChase;
    gp.pointerBased = true;
    gp.hotFraction = 0.9;
    gp.hotBytes = 8 * 1024;
    k.refs.push_back(gp);
    prog.kernels.push_back(k);
    return prog;
}

} // namespace

int
main()
{
    constexpr std::uint32_t cores = 16;

    // 1. Register the loop as a named workload.
    WorkloadRegistry reg;
    reg.add({"quickstart", "one strip-mined loop", {},
             [](std::uint32_t n, double, const WorkloadParams &) {
                 return quickstartProgram(n);
             }});

    // 2. Peek at the compiler's Sec. 2.4 classification + Fig. 3
    //    tiling of the program.
    const ExperimentSpec spec = ExperimentBuilder(reg)
                                    .workload("quickstart")
                                    .mode(SystemMode::HybridProto)
                                    .cores(cores)
                                    .spec();
    const SystemParams params = spec.resolvedParams();
    const PreparedProgram pp = prepareProgram(
        reg.build("quickstart", cores), cores, params.spmBytes);
    const KernelPlan &plan = pp.plan.kernels[0];
    std::printf("compiler: %u SPM refs, %u guarded refs, "
                "buffer size %llu B, %llu iters/chunk\n",
                plan.numSpmRefs, plan.numGuardedRefs,
                static_cast<unsigned long long>(1ull << plan.bufLog2),
                static_cast<unsigned long long>(plan.chunkIters));

    // 3. Run on the hybrid system with the coherence protocol.
    const ExperimentResult res = runExperiment(spec, reg, &pp);
    const RunResults &r = res.results;

    std::printf("cycles: %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("phase cycles (all cores): control %llu, sync %llu, "
                "work %llu\n",
                static_cast<unsigned long long>(r.phaseCycles[0]),
                static_cast<unsigned long long>(r.phaseCycles[1]),
                static_cast<unsigned long long>(r.phaseCycles[2]));
    std::printf("SPM accesses: %llu, DMA lines: %llu, guarded "
                "accesses: %llu\n",
                static_cast<unsigned long long>(
                    r.counters.spmAccesses),
                static_cast<unsigned long long>(r.counters.dmaLines),
                static_cast<unsigned long long>(
                    r.counters.guardedAccesses));
    std::printf("filter hit ratio: %.1f%%\n",
                100.0 * r.filterHitRatio);
    std::printf("NoC packets: %llu (DMA %llu, CohProt %llu)\n",
                static_cast<unsigned long long>(
                    r.traffic.totalPackets()),
                static_cast<unsigned long long>(
                    r.traffic.classPackets(TrafficClass::Dma)),
                static_cast<unsigned long long>(
                    r.traffic.classPackets(TrafficClass::CohProt)));
    std::printf("energy: %.1f uJ (SPMs %.1f%%, CohProt %.1f%%)\n",
                r.energy.total() / 1000.0,
                100.0 * r.energy.spms / r.energy.total(),
                100.0 * r.energy.cohProt / r.energy.total());

    // 4. Per-component statistics come back as a snapshot too.
    const auto dma = res.stats.find("dmac");
    if (dma != res.stats.end()) {
        const auto lat = dma->second.histograms.find("lineLatency");
        if (lat != dma->second.histograms.end())
            std::printf("DMA line latency: %llu samples, mean "
                        "%.1f cycles\n",
                        static_cast<unsigned long long>(
                            lat->second.samples),
                        lat->second.samples
                            ? double(lat->second.sum) /
                                  double(lat->second.samples)
                            : 0.0);
    }
    return 0;
}
