/**
 * @file
 * Base Mask / Offset Mask configuration registers (Sec. 3.1).
 *
 * Prior to a parallel loop the runtime divides the SPM into
 * equally-sized, power-of-two buffers and notifies the hardware of
 * the buffer size. Every protocol structure then decomposes 64-bit
 * GM virtual addresses into a base (identifies the mapped chunk) and
 * an offset (position inside the chunk) with two mask registers.
 * Fork-join parallelism guarantees all threads run with the same
 * buffer size, so one global configuration is valid chip-wide.
 * Only the buffer size is stored; the masks are derived on read.
 */

#ifndef SPMCOH_COHERENCE_BUFFERCONFIG_HH
#define SPMCOH_COHERENCE_BUFFERCONFIG_HH

#include <cstdint>

#include "sim/Logging.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Chunk base/offset decomposition registers. */
class BufferConfig
{
  public:
    BufferConfig() { set(lineShift); }

    /** Program the masks for buffers of 2^@p log2_bytes bytes. */
    void
    set(std::uint32_t log2_bytes)
    {
        if (log2_bytes < lineShift || log2_bytes > 30)
            fatal("BufferConfig: unsupported buffer size");
        log2 = log2_bytes;
    }

    std::uint32_t log2Bytes() const { return log2; }
    std::uint64_t bytes() const { return Addr(1) << log2Bytes(); }

    /** GM base address of the chunk containing @p a. */
    Addr base(Addr a) const { return a & ~offMask(); }

    /** Offset of @p a inside its chunk. */
    std::uint64_t offset(Addr a) const { return a & offMask(); }

  private:
    Addr offMask() const { return (Addr(1) << log2Bytes()) - 1; }

    std::uint32_t log2 = lineShift;
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_BUFFERCONFIG_HH
