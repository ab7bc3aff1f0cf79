/**
 * @file
 * The figure and table presets and their renderers. Each renderer
 * prints the paper's reported shape next to the model's numbers.
 */

#include "driver/Figures.hh"

#include <cstdarg>
#include <cstdio>

#include "driver/WorkloadRegistry.hh"
#include "sim/Logging.hh"
#include "system/System.hh"
#include "workloads/NasBenchmarks.hh"

namespace spmcoh
{

namespace
{

/** The Table 1 machine the tables describe. */
constexpr std::uint32_t evalCores = 64;
constexpr double evalScale = 1.0;

/** printf to @p os. */
[[gnu::format(printf, 2, 3)]] void
put(std::ostream &os, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list again;
    va_copy(again, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string buf(static_cast<std::size_t>(n) + 1, '\0');
    std::vsnprintf(buf.data(), buf.size(), fmt, again);
    va_end(again);
    os.write(buf.data(), n);
}

void
header(std::ostream &os, const char *title)
{
    put(os, "\n==== %s ====\n", title);
}

void
renderFig7(std::ostream &os, const SweepSpec &sweep,
           const std::vector<ExperimentResult> &results)
{
    header(os, "Figure 7: coherence protocol overheads vs ideal "
               "coherence (x)");
    put(os, "%-5s %12s %12s %12s\n", "Bench", "ExecTime", "Energy",
        "NoCtraffic");
    std::vector<double> ot, oe, on;
    for (const std::string &w : sweep.workloads) {
        const RunResults &ideal =
            findResult(results, w, SystemMode::HybridIdeal).results;
        const RunResults &proto =
            findResult(results, w, SystemMode::HybridProto).results;
        const double t = double(proto.cycles) / double(ideal.cycles);
        const double e =
            proto.energy.total() / ideal.energy.total();
        const double n = double(proto.traffic.totalPackets()) /
                         double(ideal.traffic.totalPackets());
        ot.push_back(t);
        oe.push_back(e);
        on.push_back(n);
        put(os, "%-5s %12.3f %12.3f %12.3f\n", w.c_str(), t, e, n);
    }
    put(os, "%-5s %12.3f %12.3f %12.3f\n", "gmean", geomean(ot),
        geomean(oe), geomean(on));
    put(os, "\npaper: avg overheads 4%% perf, 9%% energy, "
            "8%% traffic; IS worst (11%% perf), SP lowest\n");
}

void
renderFig8(std::ostream &os, const SweepSpec &,
           const std::vector<ExperimentResult> &results)
{
    header(os, "Figure 8: filter hit ratio (%)");
    put(os, "%-5s %10s %14s %14s\n", "Bench", "HitRatio",
        "filterHits", "filterMisses");
    for (const ExperimentResult &er : results) {
        const RunResults &r = er.results;
        if (r.filterHits + r.filterMisses == 0) {
            put(os, "%-5s %10s %14llu %14llu  (no guarded "
                    "accesses; filters gated off)\n",
                er.spec.workload.c_str(), "n/a", 0ull, 0ull);
            continue;
        }
        put(os, "%-5s %9.1f%% %14llu %14llu\n",
            er.spec.workload.c_str(), 100.0 * r.filterHitRatio,
            static_cast<unsigned long long>(r.filterHits),
            static_cast<unsigned long long>(r.filterMisses));
    }
    put(os, "\npaper: >=97%% for CG/EP/FT/MG, ~92%% for IS, "
            "no guarded accesses in SP\n");
}

void
printCycleBar(std::ostream &os, const char *label, const RunResults &r,
              double norm, std::uint32_t cores)
{
    const double scale = 1.0 / (norm * cores);
    put(os, "  %-3s total %6.3f | control %6.3f  sync %6.3f  "
            "work %6.3f\n",
        label, double(r.cycles) / norm,
        double(r.phaseCycles[0]) * scale,
        double(r.phaseCycles[1]) * scale,
        double(r.phaseCycles[2]) * scale);
}

void
renderFig9(std::ostream &os, const SweepSpec &sweep,
           const std::vector<ExperimentResult> &results)
{
    header(os, "Figure 9: normalized cycles, cache-based (C) vs "
               "hybrid (H)");
    std::vector<double> speedups;
    for (const std::string &w : sweep.workloads) {
        const ExperimentResult &ce =
            findResult(results, w, SystemMode::CacheOnly);
        const RunResults &c = ce.results;
        const RunResults &h =
            findResult(results, w, SystemMode::HybridProto).results;
        const double norm = double(c.cycles);
        put(os, "%s:\n", w.c_str());
        printCycleBar(os, "C", c, norm, ce.spec.cores);
        printCycleBar(os, "H", h, norm, ce.spec.cores);
        const double sp = double(c.cycles) / double(h.cycles);
        speedups.push_back(sp);
        const double work_red =
            1.0 - double(h.phaseCycles[2]) / double(c.phaseCycles[2]);
        put(os, "  speedup %.3fx, work-phase reduction %.1f%%\n", sp,
            100.0 * work_red);
    }
    put(os, "\ngeomean speedup: %.3fx  (paper: 1.03x-1.22x, "
            "average 1.14x; work phase -25%%..-43%%)\n",
        geomean(speedups));
}

void
printTrafficBar(std::ostream &os, const char *label,
                const TrafficCounters &t, double norm)
{
    put(os, "  %-3s total %6.3f |", label,
        double(t.totalPackets()) / norm);
    for (std::size_t c = 0; c < numTrafficClasses; ++c) {
        put(os, " %s %5.3f",
            trafficClassName(static_cast<TrafficClass>(c)),
            double(t.packets[c]) / norm);
    }
    put(os, "\n");
}

void
renderFig10(std::ostream &os, const SweepSpec &sweep,
            const std::vector<ExperimentResult> &results)
{
    header(os, "Figure 10: normalized NoC packets, cache-based (C) "
               "vs hybrid (H)");
    std::vector<double> reductions;
    for (const std::string &w : sweep.workloads) {
        const RunResults &c =
            findResult(results, w, SystemMode::CacheOnly).results;
        const RunResults &h =
            findResult(results, w, SystemMode::HybridProto).results;
        const double norm = double(c.traffic.totalPackets());
        put(os, "%s:\n", w.c_str());
        printTrafficBar(os, "C", c.traffic, norm);
        printTrafficBar(os, "H", h.traffic, norm);
        const double ratio =
            double(h.traffic.totalPackets()) / norm;
        reductions.push_back(ratio);
        put(os, "  traffic ratio H/C = %.3f\n", ratio);
    }
    put(os, "\ngeomean H/C packet ratio: %.3f  (paper: 0.66-0.80 "
            "except EP ~1.0; average 0.71)\n",
        geomean(reductions));
}

void
printEnergyBar(std::ostream &os, const char *label,
               const EnergyBreakdown &e, double norm)
{
    put(os, "  %-3s total %6.3f | CPUs %5.3f Caches %5.3f "
            "NoC %5.3f Others %5.3f SPMs %5.3f CohProt %5.3f\n",
        label, e.total() / norm, e.cpus / norm, e.caches / norm,
        e.noc / norm, e.others / norm, e.spms / norm,
        e.cohProt / norm);
}

void
renderFig11(std::ostream &os, const SweepSpec &sweep,
            const std::vector<ExperimentResult> &results)
{
    header(os, "Figure 11: normalized energy, cache-based (C) vs "
               "hybrid (H)");
    std::vector<double> ratios;
    for (const std::string &w : sweep.workloads) {
        const RunResults &c =
            findResult(results, w, SystemMode::CacheOnly).results;
        const RunResults &h =
            findResult(results, w, SystemMode::HybridProto).results;
        const double norm = c.energy.total();
        put(os, "%s:\n", w.c_str());
        printEnergyBar(os, "C", c.energy, norm);
        printEnergyBar(os, "H", h.energy, norm);
        const double ratio = h.energy.total() / norm;
        ratios.push_back(ratio);
        put(os, "  energy ratio H/C = %.3f (cache energy "
                "reduction %.1fx)\n",
            ratio, c.energy.caches / h.energy.caches);
    }
    put(os, "\ngeomean H/C energy ratio: %.3f  (paper: 0.76-0.87 "
            "except EP 1.03; average 0.83)\n",
        geomean(ratios));
}

// The configuration is resolved through the experiment builder, so
// what is printed is exactly what every figure preset runs.
void
renderTable1(std::ostream &os, const SweepSpec &,
             const std::vector<ExperimentResult> &)
{
    const ExperimentSpec spec = ExperimentBuilder()
                                    .workload("CG")
                                    .mode(SystemMode::HybridProto)
                                    .cores(evalCores)
                                    .spec();
    const SystemParams p = spec.resolvedParams();
    System sys(p);

    put(os, "==== Table 1: main simulator parameters ====\n");
    put(os, "%-16s %u cores, out-of-order, %u instructions wide, "
            "2GHz\n",
        "Cores", p.numCores, p.core.issueWidth);
    put(os, "%-16s ROB %u entries, LQ/SQ %u/%u entries, "
            "%u Ld/St units, %u-cycle pipeline flush\n",
        "Pipeline", p.core.robEntries, p.core.lqEntries,
        p.core.sqEntries, p.core.lsUnits,
        static_cast<unsigned>(p.core.flushPenalty));
    put(os, "%-16s %u cycles, %u KB, %u-way, pseudoLRU\n",
        "L1 I-cache", static_cast<unsigned>(p.l1i.hitLatency),
        p.l1i.sizeBytes / 1024, p.l1i.ways);
    put(os, "%-16s %u cycles, %u KB, %u-way, pseudoLRU, "
            "stride prefetcher (degree %u, distance %u)\n",
        "L1 D-cache", static_cast<unsigned>(p.l1d.hitLatency),
        p.l1d.sizeBytes / 1024, p.l1d.ways, p.l1d.prefetcher.degree,
        p.l1d.prefetcher.distance);
    put(os, "%-16s shared NUCA %u MB, sliced %u KB/core, "
            "%u cycles, %u-way, pseudoLRU\n",
        "L2 cache", p.dir.l2SizeBytes * p.numCores / 1024 / 1024,
        p.dir.l2SizeBytes / 1024,
        static_cast<unsigned>(p.dir.l2Latency), p.dir.l2Ways);
    put(os, "%-16s real MOESI with blocking states, %u B lines, "
            "distributed %u-way directory, %u K entries\n",
        "Cache coherence", lineBytes, p.dir.dirWays,
        p.dir.dirEntries * p.numCores / 1024);
    put(os, "%-16s mesh %ux%u, link %u cycle, router %u cycle\n",
        "NoC", p.mesh.width, p.mesh.height,
        static_cast<unsigned>(p.mesh.linkLatency),
        static_cast<unsigned>(p.mesh.routerLatency));
    put(os, "%-16s %u cycles, %u KB, %u B blocks\n", "SPM",
        static_cast<unsigned>(p.spmLatency), p.spmBytes / 1024,
        lineBytes);
    put(os, "%-16s command queue %u entries in-order, "
            "bus queue %u entries in-order\n",
        "DMAC", p.dmac.cmdQueueEntries, p.dmac.busQueueEntries);
    put(os, "%-16s %u entries\n", "SPMDir", p.coh.spmDirEntries);
    put(os, "%-16s %u entries, fully associative, pseudoLRU\n",
        "Filter", p.coh.filterEntries);
    put(os, "%-16s distributed %u K entries, fully associative, "
            "pseudoLRU\n",
        "FilterDir", p.filterDir.entriesPerSlice * p.numCores / 1024);
    put(os, "%-16s %zu controllers at mesh corner tiles\n", "Memory",
        p.mcTiles.size());

    // Sanity: the built system exposes exactly these structures.
    if (sys.params().numCores != evalCores)
        fatal("table1: the built system has " +
              std::to_string(sys.params().numCores) + " cores, not " +
              std::to_string(evalCores));
    put(os, "\nconfig check: OK\n");
}

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

void
renderTable2(std::ostream &os, const SweepSpec &,
             const std::vector<ExperimentResult> &)
{
    put(os, "==== Table 2: benchmarks and memory access "
            "characterization ====\n");
    put(os, "(model = this repository's scaled synthetic inputs; "
            "paper = NAS inputs from Table 2)\n\n");
    put(os, "%-5s %-8s | %-28s | %-28s\n", "", "", "SPM refs",
        "Guarded refs");
    put(os, "%-5s %-8s | %8s %8s %10s | %8s %8s %10s\n", "Name",
        "Kernels", "# model", "# paper", "model data", "# model",
        "# paper", "model data");
    for (NasBench b : allNasBenchmarks()) {
        const ProgramDecl prog = WorkloadRegistry::global().build(
            nasBenchName(b), evalCores, evalScale);
        const BenchCharacterization c = characterize(prog);
        const PaperCharacteristics pc = paperTable2(b);
        put(os, "%-5s %-8u | %8u %8u %10s | %8u %8u %10s\n",
            nasBenchName(b), c.kernels, c.spmRefs, pc.spmRefs,
            prettyBytes(c.spmDataBytes).c_str(), c.guardedRefs,
            pc.guardedRefs, prettyBytes(c.guardedDataBytes).c_str());
        if (c.kernels != pc.kernels || c.spmRefs != pc.spmRefs ||
            c.guardedRefs != pc.guardedRefs)
            fatal(std::string("table2: ") + nasBenchName(b) +
                  " does not match the paper's structure");
    }
    put(os, "\n(paper data sizes: CG 109MB/600KB, EP 1MB/512KB, "
            "FT 269MB/1MB, IS 67MB/2MB, MG 454MB/64B, SP 2MB/0B; "
            "model sizes are scaled down so a 64-core run takes "
            "about a second)\n");
}

// The paper fixes the filter at 48 entries (Table 1); this sweep
// shows why that is a sweet spot: IS (the largest guarded data set)
// needs tens of entries, while CG saturates early.
void
renderAblationFilter(std::ostream &os, const SweepSpec &sweep,
                     const std::vector<ExperimentResult> &results)
{
    header(os, "Ablation: filter size sweep (hybrid-proto)");
    for (const std::string &w : sweep.workloads) {
        put(os, "%s:\n", w.c_str());
        put(os, "  %8s %10s %12s %14s\n", "entries", "hit%", "cycles",
            "CohProt pkts");
        for (const ExperimentResult &er : results) {
            if (er.spec.workload != w)
                continue;
            const RunResults &r = er.results;
            put(os, "  %8u %9.1f%% %12llu %14llu\n",
                er.params.coh.filterEntries, 100.0 * r.filterHitRatio,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(
                    r.traffic.classPackets(TrafficClass::CohProt)));
        }
    }
}

// Sec. 5.4 attributes part of the hybrid system's win to prefetchers
// "not able to provide all the data required by all the strided
// references on time"; this quantifies how much the baseline relies
// on them.
void
renderAblationPrefetcher(std::ostream &os, const SweepSpec &sweep,
                         const std::vector<ExperimentResult> &results)
{
    header(os, "Ablation: cache-based baseline prefetcher on/off");
    put(os, "%-5s %14s %14s %10s\n", "Bench", "cycles(pf on)",
        "cycles(pf off)", "pf gain");
    for (const std::string &w : sweep.workloads) {
        const RunResults &on =
            findResult(results, w, SystemMode::CacheOnly, "pf-on")
                .results;
        const RunResults &off =
            findResult(results, w, SystemMode::CacheOnly, "pf-off")
                .results;
        put(os, "%-5s %14llu %14llu %9.3fx\n", w.c_str(),
            static_cast<unsigned long long>(on.cycles),
            static_cast<unsigned long long>(off.cycles),
            double(off.cycles) / double(on.cycles));
    }
}

const ExperimentResult &
at(const std::vector<ExperimentResult> &results, SystemMode mode,
   std::uint32_t cores)
{
    for (const ExperimentResult &r : results)
        if (r.spec.mode == mode && r.spec.cores == cores)
            return r;
    fatal("scaling: missing sweep point");
}

// The paper evaluates only the Table 1 machine; this calibrates how
// its headline results extrapolate. What to look for: a protocol
// overhead (proto vs ideal) that stays within a few percent as the
// directory and FilterDir spread over more slices, and the
// hybrid-vs-cache speedup curve (sync-bound dip at 128-256 cores,
// recovering beyond — see docs/reproducing-figures.md, "Scaling
// beyond the Table 1 machine").
void
renderScaling(std::ostream &os, const SweepSpec &sweep,
              const std::vector<ExperimentResult> &results)
{
    header(os, "Scaling: CG, 64-1024 cores (cycles normalized to the "
               "64-core run of each mode)");
    put(os, "%7s %7s %5s | %12s %12s %12s | %9s %9s\n", "cores",
        "mesh", "MCs", "cache", "hybrid-ideal", "hybrid-proto",
        "speedup", "overhead");
    const Tick c64 =
        at(results, SystemMode::CacheOnly, 64).results.cycles;
    const Tick i64 =
        at(results, SystemMode::HybridIdeal, 64).results.cycles;
    const Tick p64 =
        at(results, SystemMode::HybridProto, 64).results.cycles;
    for (std::uint32_t n : sweep.coreCounts) {
        const ExperimentResult &c =
            at(results, SystemMode::CacheOnly, n);
        const ExperimentResult &i =
            at(results, SystemMode::HybridIdeal, n);
        const ExperimentResult &p =
            at(results, SystemMode::HybridProto, n);
        char mesh[16];
        std::snprintf(mesh, sizeof(mesh), "%ux%u",
                      c.params.mesh.width, c.params.mesh.height);
        put(os,
            "%7u %7s %5zu | %5.2f %6llu %5.2f %6llu %5.2f %6llu "
            "| %8.3fx %+7.1f%%\n",
            n, mesh, c.params.mcTiles.size(),
            double(c.results.cycles) / double(c64),
            static_cast<unsigned long long>(c.results.cycles),
            double(i.results.cycles) / double(i64),
            static_cast<unsigned long long>(i.results.cycles),
            double(p.results.cycles) / double(p64),
            static_cast<unsigned long long>(p.results.cycles),
            double(c.results.cycles) / double(p.results.cycles),
            100.0 * (double(p.results.cycles) /
                         double(i.results.cycles) -
                     1.0));
    }
    put(os, "\nspeedup = cache / hybrid-proto cycles; overhead "
            "= hybrid-proto over hybrid-ideal.\n"
            "64-core reference: the paper's Table 1 machine "
            "(Fig. 7 overhead +1..11%%, Fig. 9 speedup "
            "1.03-1.22x).\n");
}

// The same 64-core machine split over a multi-chip fabric. CG's
// working set is chip-local, so the slowdown here is the floor cost
// of the fabric (barriers and the escalated fraction of directory
// traffic), not a pipeline's handoffs.
void
renderScalingChips(std::ostream &os, const SweepSpec &,
                   const std::vector<ExperimentResult> &results)
{
    header(os, "Multi-chip fabric: CG, 64 cores over 1/2/4 chips "
               "(hybrid-proto)");
    put(os, "%7s %9s | %12s %9s | %12s %12s\n", "chips", "mesh",
        "cycles", "slowdown", "crossings", "linkPackets");
    const Tick one_chip = results.front().results.cycles;
    for (const ExperimentResult &r : results) {
        char mesh[24];
        std::snprintf(mesh, sizeof(mesh), "%ux%ux%u",
                      r.params.mesh.chips, r.params.mesh.width,
                      r.params.mesh.height);
        std::uint64_t crossings = 0, link_packets = 0;
        const auto ha = r.stats.find("homeagent");
        if (ha != r.stats.end())
            crossings = ha->second.counters.at("crossings");
        const auto ic = r.stats.find("iclink");
        if (ic != r.stats.end())
            link_packets = ic->second.counters.at("upPackets") +
                           ic->second.counters.at("downPackets");
        put(os, "%7u %9s | %12llu %8.3fx | %12llu %12llu\n",
            r.params.mesh.chips, mesh,
            static_cast<unsigned long long>(r.results.cycles),
            double(r.results.cycles) / double(one_chip),
            static_cast<unsigned long long>(crossings),
            static_cast<unsigned long long>(link_packets));
    }
    put(os, "\ncrossings = packets through the global home "
            "agent; linkPackets = both\ndirections of every "
            "inter-chip link.\n");
}

} // namespace

const std::vector<Figure> &
figures()
{
    // The figures pin the paper's six NAS workloads: --workload=all
    // would add the parameterized kernels, which no figure shows.
    static const std::vector<Figure> table = {
        {"fig7",
         "Figure 7: execution time / energy / NoC traffic overheads "
         "of the proposed protocol vs ideal coherence",
         "Figure 7: coherence protocol overheads",
         {"--workload=CG,EP,FT,IS,MG,SP",
          "--mode=hybrid-ideal,hybrid-proto"},
         renderFig7},
        {"fig8", "Figure 8: filter hit ratio per benchmark "
                 "(hybrid-proto)",
         "Figure 8: filter hit ratio",
         {"--workload=CG,EP,FT,IS,MG,SP", "--mode=hybrid-proto"},
         renderFig8},
        {"fig9",
         "Figure 9: normalized execution time, cache-based vs "
         "hybrid, split into control/sync/work phases",
         "Figure 9: normalized cycles, cache-based vs hybrid",
         {"--workload=CG,EP,FT,IS,MG,SP", "--mode=cache,hybrid-proto"},
         renderFig9},
        {"fig10",
         "Figure 10: normalized NoC packets by class, cache-based "
         "vs hybrid",
         "Figure 10: normalized NoC packets, cache-based vs hybrid",
         {"--workload=CG,EP,FT,IS,MG,SP", "--mode=cache,hybrid-proto"},
         renderFig10},
        {"fig11",
         "Figure 11: normalized energy by component, cache-based "
         "vs hybrid",
         "Figure 11: normalized energy, cache-based vs hybrid",
         {"--workload=CG,EP,FT,IS,MG,SP", "--mode=cache,hybrid-proto"},
         renderFig11},
        {"table1",
         "Table 1: simulated machine configuration (no simulation "
         "runs)",
         "Table 1: main simulator parameters", {}, renderTable1},
        {"table2",
         "Table 2: workload model characterization vs the paper's "
         "reported structure (no simulation runs)",
         "Table 2: benchmarks and memory access characterization",
         {}, renderTable2},
        {"ablation-filter",
         "Ablation: filter capacity vs hit ratio and protocol "
         "overhead (CG and IS, hybrid-proto)",
         "Ablation: filter size sweep (hybrid-proto)",
         {"--workload=CG,IS", "--filter-entries=4,16,48,128"},
         renderAblationFilter},
        {"ablation-prefetcher",
         "Ablation: cache-based baseline with the L1D stride "
         "prefetcher on vs off (FT, MG, SP)",
         "Ablation: cache-based baseline prefetcher on/off",
         {"--workload=FT,MG,SP", "--mode=cache", "--prefetcher=on,off"},
         renderAblationPrefetcher},
        {"scaling",
         "Scaling: CG from 64 to 1024 cores, cache vs hybrid-ideal "
         "vs hybrid-proto on topology-derived meshes",
         "Scaling: CG, 64-1024 cores, all modes",
         {"--workload=CG", "--mode=cache,hybrid-ideal,hybrid-proto",
          "--cores=64,128,256,512,1024"},
         renderScaling},
        {"scaling-chips",
         "Scaling: CG, 64 cores over 1/2/4 chips (hybrid-proto)",
         "Multi-chip fabric: CG, 64 cores over 1/2/4 chips "
         "(hybrid-proto)",
         {"--workload=CG", "--cores=64", "--chips=1,2,4"},
         renderScalingChips},
    };
    return table;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &f : figures())
        if (name == f.name)
            return &f;
    return nullptr;
}

} // namespace spmcoh
