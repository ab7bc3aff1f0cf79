/**
 * @file
 * Synthetic models of the six NAS benchmarks used in the evaluation
 * (Table 2): CG, EP, FT, IS, MG, SP.
 *
 * Each model reproduces the benchmark's memory behaviour -- kernel
 * count, number of SPM (strided) and guarded (random, alias-unknown)
 * references, the relative data-set sizes, EP's stack-dominated
 * profile, SP's 54 compute-heavy kernels -- with data sets scaled so
 * a 64-core simulation completes in about a second
 * (docs/architecture.md, "src/workloads/"). The paper's original
 * sizes are kept alongside for the Table 2 reproduction.
 */

#ifndef SPMCOH_WORKLOADS_NASBENCHMARKS_HH
#define SPMCOH_WORKLOADS_NASBENCHMARKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/LoopIr.hh"

namespace spmcoh
{

/** The six evaluated benchmarks. */
enum class NasBench : std::uint8_t { CG, EP, FT, IS, MG, SP };

inline const char *
nasBenchName(NasBench b)
{
    switch (b) {
      case NasBench::CG: return "CG";
      case NasBench::EP: return "EP";
      case NasBench::FT: return "FT";
      case NasBench::IS: return "IS";
      case NasBench::MG: return "MG";
      case NasBench::SP: return "SP";
      default:           return "?";
    }
}

inline std::vector<NasBench>
allNasBenchmarks()
{
    return {NasBench::CG, NasBench::EP, NasBench::FT,
            NasBench::IS, NasBench::MG, NasBench::SP};
}

/** Paper-reported characteristics (Table 2), for printing. */
struct PaperCharacteristics
{
    const char *input;
    std::uint32_t kernels;
    std::uint32_t spmRefs;
    const char *spmData;
    std::uint32_t guardedRefs;
    const char *guardedData;
};

PaperCharacteristics paperTable2(NasBench b);

/**
 * Build the synthetic model of @p b for @p num_cores threads.
 * All models keep Table 2's structural ratios; @p scale shrinks or
 * grows the iteration counts (1.0 = default evaluation size).
 */
ProgramDecl buildNasBenchmark(NasBench b, std::uint32_t num_cores,
                              double scale = 1.0);

/** Measured characterization of a built model (Table 2 columns). */
struct BenchCharacterization
{
    std::uint32_t kernels = 0;
    std::uint32_t spmRefs = 0;
    std::uint64_t spmDataBytes = 0;
    std::uint32_t guardedRefs = 0;
    std::uint64_t guardedDataBytes = 0;
};

BenchCharacterization characterize(const ProgramDecl &prog);

} // namespace spmcoh

#endif // SPMCOH_WORKLOADS_NASBENCHMARKS_HH
