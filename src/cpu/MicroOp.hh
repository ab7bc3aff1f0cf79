/**
 * @file
 * The micro-operation stream consumed by the core timing model.
 *
 * Workload generators (src/workloads) compile kernels into lazy op
 * streams: compute batches, loads/stores (optionally guarded), the
 * runtime's DMA commands, phase markers for the Fig. 9 breakdown and
 * fork-join barriers. Op streams are pulled one op at a time so
 * multi-million-instruction workloads never materialize in memory.
 */

#ifndef SPMCOH_CPU_MICROOP_HH
#define SPMCOH_CPU_MICROOP_HH

#include <cstdint>

#include "sim/Types.hh"

namespace spmcoh
{

/** Execution phase for the Fig. 9 breakdown. */
enum class ExecPhase : std::uint8_t { Control = 0, Sync = 1, Work = 2 };
constexpr std::size_t numExecPhases = 3;

/** Micro-op kinds. */
enum class OpKind : std::uint8_t
{
    NonMem,     ///< @c count non-memory instructions
    Load,       ///< load @c size bytes at @c addr
    Store,      ///< store @c size bytes at @c addr
    DmaGet,     ///< GM @c addr -> SPM @c addr2, @c count bytes
    DmaPut,     ///< SPM @c addr2 -> GM @c addr, @c count bytes
    DmaSync,    ///< wait for tags in mask @c tag
    MapBuffer,  ///< SPMDir update: buffer @c count <- base @c addr
    SetBufCfg,  ///< program Base/Offset masks: log2 size in @c count
    Phase,      ///< switch phase accounting to @c tag
    KernelCode, ///< kernel code footprint: @c count bytes at @c addr
    /**
     * Zero-cost phase-graph marker: kernel @c count (timestep
     * @c tag) begins. The core attributes subsequent cycles and
     * coherence activity to this kernel for the per-phase stats.
     */
    KernelMark,
    /**
     * Scoped fork-join barrier @c count. @c tag carries the arrival
     * count (0 = every core, the legacy default); @c addr packs the
     * member-core span (lo | hi << 32) the System derives the
     * release latency from.
     */
    Barrier,
    End,        ///< thread finished
};

/** One micro-operation. */
struct MicroOp
{
    OpKind kind = OpKind::End;
    Addr addr = 0;
    Addr addr2 = 0;
    std::uint32_t count = 0;
    std::uint32_t tag = 0;
    std::uint32_t refId = 0;
    std::uint8_t size = 8;
    bool guarded = false;
    std::uint64_t wdata = 0;
    bool hasWdata = false;  ///< stores: explicit value (else pattern)
};

/** Lazy op stream interface. */
class OpSource
{
  public:
    virtual ~OpSource() = default;
    /** Produce the next op. @return false when the stream ends. */
    virtual bool next(MicroOp &op) = 0;
};

/**
 * Deterministic value written by stores that carry no explicit data.
 * Depends only on (address, reference) so the same program produces
 * identical memory images on the cache-based and hybrid systems --
 * the basis of the end-to-end equivalence tests.
 */
inline std::uint64_t
defaultStoreValue(Addr addr, std::uint32_t ref_id)
{
    std::uint64_t x = addr * 0x9e3779b97f4a7c15ULL + ref_id;
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 32;
    return x;
}

} // namespace spmcoh

#endif // SPMCOH_CPU_MICROOP_HH
