/**
 * @file
 * SPMDir: per-core directory of chunks mapped to the local SPM
 * (Sec. 3.1; Table 1: 32 entries).
 *
 * Implemented as the paper describes: a CAM of GM base addresses
 * where the entry index *is* the SPM buffer number, so a hit directly
 * yields the SPM buffer base without a RAM array. The CAM is one flat
 * base array; invalidBase marks an unmapped entry (~0 is never a
 * buffer-aligned address), as in CacheArray's tag array.
 *
 * A 64-bit signature summarizes the mapped bases (one hashed bit per
 * base, recomputed on every map/unmap/clear). mayHold() is never false
 * for a mapped base, so a FilterDir broadcast can skip the CAM of every
 * core whose signature rules the base out.
 */

#ifndef SPMCOH_COHERENCE_SPMDIR_HH
#define SPMCOH_COHERENCE_SPMDIR_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/Logging.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Per-core SPM mapping directory. */
class SpmDir
{
  public:
    /** Base value of an unmapped entry. */
    static constexpr Addr invalidBase = ~Addr(0);

    explicit SpmDir(std::uint32_t entries_ = 32)
        : bases(entries_, invalidBase)
    {}

    std::uint32_t entries() const
    { return static_cast<std::uint32_t>(bases.size()); }

    /**
     * CAM lookup by GM base address.
     * @return the lowest matching SPM buffer index (== entry index)
     */
    std::optional<std::uint32_t>
    lookup(Addr gm_base) const
    {
        for (std::uint32_t i = 0; i < bases.size(); ++i)
            if (bases[i] == gm_base)
                return i;
        return std::nullopt;
    }

    /** Signature test: false means @p gm_base is certainly unmapped. */
    bool mayHold(Addr gm_base) const
    { return (sig & sigBit(gm_base)) != 0; }

    /** Record that buffer @p idx now holds the chunk at @p gm_base. */
    void
    map(std::uint32_t idx, Addr gm_base)
    {
        if (idx >= bases.size())
            panic("SpmDir: buffer index out of range");
        if (gm_base == invalidBase)
            panic("SpmDir: base collides with the invalid sentinel");
        bases[idx] = gm_base;
        resign();
    }

    /** Drop the mapping of buffer @p idx. */
    void
    unmap(std::uint32_t idx)
    {
        if (idx >= bases.size())
            panic("SpmDir: buffer index out of range");
        bases[idx] = invalidBase;
        resign();
    }

    /** Drop every mapping (loop epilogue / context switch). */
    void
    clear()
    {
        std::fill(bases.begin(), bases.end(), invalidBase);
        sig = 0;
    }

    /** Currently mapped base of buffer @p idx, if any. */
    std::optional<Addr>
    baseOf(std::uint32_t idx) const
    {
        if (idx < bases.size() && bases[idx] != invalidBase)
            return bases[idx];
        return std::nullopt;
    }

  private:
    /** Signature bit of a base: the top six bits of a Fibonacci hash,
     *  which mix every address bit (buffer bases share their low
     *  zero bits). */
    static std::uint64_t
    sigBit(Addr gm_base)
    {
        return std::uint64_t(1)
               << ((gm_base * 0x9E3779B97F4A7C15ull) >> 58);
    }

    /** Recompute the signature from the mapped entries. */
    void
    resign()
    {
        sig = 0;
        for (Addr b : bases)
            if (b != invalidBase)
                sig |= sigBit(b);
    }

    std::vector<Addr> bases;
    std::uint64_t sig = 0;
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_SPMDIR_HH
