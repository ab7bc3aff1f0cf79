/**
 * @file
 * Simulator self-performance harness: wall-clock cost per simulated
 * cycle on a fixed experiment pair (CG and pipeline, 8 cores,
 * hybrid-proto). Unlike every other harness in bench/, this one
 * measures the simulator itself, not the simulated machine — it is
 * the regression baseline for "did this refactor slow the event
 * loop down". The checked-in BENCH_selfperf.json at the repo root
 * holds one reference capture; re-run after substantial core/mem
 * changes and compare nsPerSimCycle.
 *
 *   bench_selfperf [--reps=N] [--out=FILE]
 *
 * Each experiment is compiled once, run untimed once (warm-up),
 * then run N times (default 3); the fastest repetition is reported
 * to suppress scheduler noise. Output is JSON only.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "driver/Driver.hh"
#include "driver/Json.hh"

#ifndef SPMCOH_BUILD_TYPE
#define SPMCOH_BUILD_TYPE "unknown"
#endif

using namespace spmcoh;

namespace
{

struct Sample
{
    std::string name;
    std::uint64_t simCycles = 0;
    std::uint64_t wallUs = 0;
    std::uint64_t nsPerSimCycle = 0;
};

Sample
measure(const std::string &workload, std::uint32_t reps,
        std::uint32_t cores, std::uint32_t chips)
{
    const ExperimentSpec spec = ExperimentBuilder()
                                    .workload(workload)
                                    .mode(SystemMode::HybridProto)
                                    .cores(cores)
                                    .chips(chips)
                                    .spec();
    runExperiment(spec);  // warm-up: page in code + allocator state
    double best_ms = 0.0;
    std::uint64_t cycles = 0;
    for (std::uint32_t r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const ExperimentResult res = runExperiment(spec);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        cycles = res.results.cycles;
        if (r == 0 || ms < best_ms)
            best_ms = ms;
    }
    Sample s;
    s.name = spec.label();
    s.simCycles = cycles;
    // Integer us / ns keep the checked-in JSON diff-stable across
    // double-formatting quirks.
    s.wallUs =
        static_cast<std::uint64_t>(std::llround(best_ms * 1e3));
    s.nsPerSimCycle = cycles
        ? static_cast<std::uint64_t>(std::llround(
              best_ms * 1e6 / static_cast<double>(cycles)))
        : 0;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t reps = 3;
    std::uint32_t cores = 8;
    std::uint32_t chips = 1;
    std::string out_file;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--reps=", 7) == 0) {
            const long v = std::strtol(arg + 7, nullptr, 10);
            if (v < 1) {
                std::fprintf(stderr, "bad rep count '%s'\n",
                             arg + 7);
                return 2;
            }
            reps = static_cast<std::uint32_t>(v);
        } else if (std::strncmp(arg, "--cores=", 8) == 0) {
            const long v = std::strtol(arg + 8, nullptr, 10);
            if (v < 1) {
                std::fprintf(stderr, "bad core count '%s'\n",
                             arg + 8);
                return 2;
            }
            cores = static_cast<std::uint32_t>(v);
        } else if (std::strncmp(arg, "--chips=", 8) == 0) {
            const long v = std::strtol(arg + 8, nullptr, 10);
            if (v < 1) {
                std::fprintf(stderr, "bad chip count '%s'\n",
                             arg + 8);
                return 2;
            }
            chips = static_cast<std::uint32_t>(v);
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            out_file = arg + 6;
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf("simulator wall-clock per simulated cycle "
                        "on fixed CG/pipeline experiments\n"
                        "usage: %s [--reps=N] [--cores=N] "
                        "[--chips=N] [--out=FILE]\n",
                        argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            return 2;
        }
    }

    try {
        std::ofstream file;
        if (!out_file.empty()) {
            file.open(out_file);
            if (!file) {
                std::fprintf(stderr, "cannot open '%s'\n",
                             out_file.c_str());
                return 2;
            }
        }
        std::ostream &os = file.is_open()
            ? static_cast<std::ostream &>(file)
            : std::cout;

        JsonWriter w(os);
        w.beginObject();
        w.key("bench").value("selfperf");
        w.key("reps").value(reps);
        // Provenance: captures are only comparable within the same
        // build type, experiment shape and host shape (the hardware
        // thread count; scripts/check_selfperf.py matches on it).
        w.key("buildType").value(SPMCOH_BUILD_TYPE);
        w.key("cores").value(std::uint64_t{cores});
        w.key("chips").value(std::uint64_t{chips});
        const unsigned hw = std::thread::hardware_concurrency();
        w.key("hostThreads").value(std::uint64_t{hw ? hw : 1});
        w.key("experiments").beginArray();
        for (const char *wl : {"CG", "pipeline"}) {
            const Sample s = measure(wl, reps, cores, chips);
            w.beginObject();
            w.key("name").value(s.name);
            w.key("simCycles").value(s.simCycles);
            w.key("wallUs").value(s.wallUs);
            w.key("nsPerSimCycle").value(s.nsPerSimCycle);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
        os.flush();
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
