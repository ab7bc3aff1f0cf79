/**
 * @file
 * Virtual address-space layout of the hybrid memory system (Fig. 2).
 *
 * The system reserves one contiguous virtual range covering all SPMs
 * (direct-mapped to their physical ranges) and every core keeps the
 * range registers needed to (a) recognize SPM addresses before any
 * MMU action and (b) translate them without a TLB lookup. Everything
 * else (heap, per-core stacks, code) is GM, served by the cache
 * hierarchy under the MOESI protocol.
 */

#ifndef SPMCOH_SPM_ADDRESSMAP_HH
#define SPMCOH_SPM_ADDRESSMAP_HH

#include <cstdint>

#include "sim/Logging.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Address-space map and the per-core SPM range registers. */
class AddressMap
{
  public:
    /** Default virtual base of the global SPM range. */
    static constexpr Addr defaultSpmBase = 0x7e0000000000ULL;
    /** Default GM heap base used by workload allocators. */
    static constexpr Addr heapBase = 0x10000000ULL;
    /** Default code region base. */
    static constexpr Addr codeBase = 0x400000ULL;
    /** Per-core stack region base and stride. */
    static constexpr Addr stackBase = 0x7f0000000000ULL;
    static constexpr Addr stackStride = 1ULL << 20;

    AddressMap(std::uint32_t num_cores, std::uint32_t spm_bytes)
        : numCores(num_cores), spmBytes(spm_bytes)
    {
        if (!isPow2(spm_bytes))
            fatal("AddressMap: SPM size must be a power of two");
    }

    std::uint32_t cores() const { return numCores; }

    /** Range check performed before any MMU action (Sec. 2.1). */
    bool
    isSpmAddr(Addr a) const
    {
        return a >= defaultSpmBase &&
               a < defaultSpmBase +
                   static_cast<Addr>(numCores) * spmBytes;
    }

    /** Core whose SPM contains @p a. @pre isSpmAddr(a) */
    CoreId
    spmOwner(Addr a) const
    {
        return static_cast<CoreId>((a - defaultSpmBase) / spmBytes);
    }

    /** Offset of @p a within its SPM. @pre isSpmAddr(a) */
    std::uint32_t
    spmOffset(Addr a) const
    {
        return static_cast<std::uint32_t>(
            (a - defaultSpmBase) % spmBytes);
    }

    /** Virtual base address of core @p c's SPM. */
    Addr
    localSpmBase(CoreId c) const
    {
        return defaultSpmBase + static_cast<Addr>(c) * spmBytes;
    }

    /** Base of core @p c's stack region. */
    static Addr
    stackFor(CoreId c)
    {
        return stackBase + static_cast<Addr>(c) * stackStride;
    }

  private:
    std::uint32_t numCores;
    std::uint32_t spmBytes;
};

} // namespace spmcoh

#endif // SPMCOH_SPM_ADDRESSMAP_HH
