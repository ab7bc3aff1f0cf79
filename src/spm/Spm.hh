/**
 * @file
 * One scratchpad memory (Table 1: 32KB, 2 cycles, 64B blocks).
 *
 * SPMs are plain byte arrays with deterministic access latency: no
 * tags, no TLB, no coherence state. The bytes are kept in 4 KiB pages
 * allocated on first write, so an SPM that is never written costs
 * one page pointer per page. All cores can address any SPM;
 * remote accesses travel the mesh (handled by the coherence
 * controller), local ones complete in spmLatency cycles.
 */

#ifndef SPMCOH_SPM_SPM_HH
#define SPMCOH_SPM_SPM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/Logging.hh"
#include "sim/Stats.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Per-core scratchpad storage. */
class Spm
{
  public:
    Spm(std::uint32_t size_bytes, Tick latency_, const std::string &name)
        : sizeBytes(size_bytes), pages(divCeil(size_bytes, pageBytes)),
          latency(latency_), stats(name)
    {}

    std::uint32_t size() const { return sizeBytes; }
    Tick accessLatency() const { return latency; }

    /** Read @p n bytes (1..8) at @p off; counts one access. */
    std::uint64_t
    read(std::uint32_t off, std::uint32_t n)
    {
        check(off, n);
        ++stReads;
        const std::uint8_t *const b = readable(off, n);
        std::uint64_t v = 0;
        for (std::uint32_t i = n; i-- > 0;)
            v = (v << 8) | (b ? b[i] : byteAt(off + i));
        return v;
    }

    /** Write @p n bytes (1..8) at @p off; counts one access. */
    void
    write(std::uint32_t off, std::uint32_t n, std::uint64_t v)
    {
        check(off, n);
        ++stWrites;
        std::uint8_t *const b = writable(off, n);
        for (std::uint32_t i = 0; i < n; ++i) {
            (b ? b[i] : byteRef(off + i)) =
                static_cast<std::uint8_t>(v & 0xff);
            v >>= 8;
        }
    }

    /** Bulk line copy in (DMA fill); counts one block access. */
    void
    fillBlock(std::uint32_t off, const std::uint8_t *src,
              std::uint32_t n)
    {
        check(off, n);
        ++stDmaFills;
        std::uint8_t *const b = writable(off, n);
        for (std::uint32_t i = 0; i < n; ++i)
            (b ? b[i] : byteRef(off + i)) = src[i];
    }

    /** Bulk line copy out (DMA drain); counts one block access. */
    void
    drainBlock(std::uint32_t off, std::uint8_t *dst,
               std::uint32_t n)
    {
        check(off, n);
        ++stDmaDrains;
        const std::uint8_t *const b = readable(off, n);
        for (std::uint32_t i = 0; i < n; ++i)
            dst[i] = b ? b[i] : byteAt(off + i);
    }

    /** Pages written so far (tests). */
    std::size_t pagesAllocated() const { return numPages; }

    const StatGroup &statGroup() const { return stats; }

  private:
    /** The bytes live in pages allocated on first write; an unwritten
     *  page reads as zeros. */
    static constexpr std::uint32_t pageBytes = 4096;

    void
    check(std::uint32_t off, std::uint32_t n) const
    {
        if (std::uint64_t{off} + n > sizeBytes)
            panic("Spm: access out of range");
    }

    /** Byte @p a; 0 in a page never written. */
    std::uint8_t
    byteAt(std::uint32_t a) const
    {
        const auto &page = pages[a / pageBytes];
        return page ? page[a % pageBytes] : 0;
    }

    /** Byte @p a, allocating (zero-filled) its page on first use. */
    std::uint8_t &
    byteRef(std::uint32_t a)
    {
        auto &page = pages[a / pageBytes];
        if (!page) {
            page = std::make_unique<std::uint8_t[]>(pageBytes);
            ++numPages;
        }
        return page[a % pageBytes];
    }

    /** The @p n bytes at @p off, or nullptr when there are none or
     *  they straddle a page edge (the callers then go byte by byte). */
    const std::uint8_t *
    readable(std::uint32_t off, std::uint32_t n) const
    {
        if (!inOnePage(off, n))
            return nullptr;
        const auto &page = pages[off / pageBytes];
        return (page ? page.get() : zeroPage) + off % pageBytes;
    }

    /** As readable(), allocating the page on first use. */
    std::uint8_t *
    writable(std::uint32_t off, std::uint32_t n)
    {
        return inOnePage(off, n) ? &byteRef(off) : nullptr;
    }

    static bool
    inOnePage(std::uint32_t off, std::uint32_t n)
    {
        return n > 0 && off % pageBytes + n <= pageBytes;
    }

    static constexpr std::uint8_t zeroPage[pageBytes] = {};

    std::uint32_t sizeBytes;
    std::vector<std::unique_ptr<std::uint8_t[]>> pages;
    std::size_t numPages = 0;
    Tick latency;
    StatGroup stats;
    Counter stReads{stats, "reads"};
    Counter stWrites{stats, "writes"};
    Counter stDmaFills{stats, "dmaFills"};
    Counter stDmaDrains{stats, "dmaDrains"};
};

} // namespace spmcoh

#endif // SPMCOH_SPM_SPM_HH
