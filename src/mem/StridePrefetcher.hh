/**
 * @file
 * Per-reference stride prefetcher for the L1 data cache (Table 1:
 * "L1 D-cache ... stride prefetcher").
 *
 * A table indexed by the static memory-reference id (the simulator's
 * stand-in for the PC) learns the access stride; once confident it
 * emits prefetch candidates `distance` lines ahead. The L1 issues the
 * candidates through its MSHR path so prefetches contend for the same
 * bandwidth and cache space as demand traffic -- this is what limits
 * prefetch timeliness when many streams are live (Sec. 5.4).
 */

#ifndef SPMCOH_MEM_STRIDEPREFETCHER_HH
#define SPMCOH_MEM_STRIDEPREFETCHER_HH

#include <cstdint>
#include <vector>

#include "sim/Types.hh"

namespace spmcoh
{

/** Stride prefetcher configuration. */
struct PrefetcherParams
{
    bool enabled = true;
    std::uint32_t tableEntries = 64;
    std::uint32_t confidenceThreshold = 2;
    std::uint32_t degree = 2;    ///< prefetches per trigger
    std::uint32_t distance = 12;  ///< lines ahead of the demand stream
};

/** Reference-indexed stride detection table. */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(const PrefetcherParams &p_) : p(p_) {}

    /**
     * Train on a demand access and collect prefetch line addresses.
     * @param ref_id static reference id (PC proxy)
     * @param addr demand address
     * @param out prefetch candidates appended here
     */
    void
    observe(std::uint32_t ref_id, Addr addr, std::vector<Addr> &out)
    {
        if (!p.enabled)
            return;
        const std::uint32_t idx = ref_id % p.tableEntries;
        if (idx >= table.size())
            table.resize(idx + 1);
        Entry &e = table[idx];
        if (e.valid && e.refId == ref_id && addr == e.lastAddr) {
            // Replay of the same access (probe + issue); ignore so the
            // learned stride is not destroyed.
            return;
        }
        if (e.valid && e.refId == ref_id) {
            const std::int64_t stride =
                static_cast<std::int64_t>(addr) -
                static_cast<std::int64_t>(e.lastAddr);
            if (stride != 0 && stride == e.stride) {
                if (e.confidence < 255)
                    ++e.confidence;
            } else {
                e.stride = stride;
                e.confidence = 0;
            }
            e.lastAddr = addr;
            if (e.confidence >= p.confidenceThreshold && e.stride != 0) {
                // Prefetch whole lines ahead of the stream.
                const std::int64_t line_stride =
                    e.stride > 0
                        ? std::max<std::int64_t>(e.stride, lineBytes)
                        : std::min<std::int64_t>(e.stride,
                                                 -std::int64_t(lineBytes));
                for (std::uint32_t d = 0; d < p.degree; ++d) {
                    const std::int64_t target =
                        static_cast<std::int64_t>(addr) +
                        line_stride * (p.distance + d);
                    if (target > 0)
                        out.push_back(lineAlign(
                            static_cast<Addr>(target)));
                }
            }
        } else {
            e.valid = true;
            e.refId = ref_id;
            e.lastAddr = addr;
            e.stride = 0;
            e.confidence = 0;
        }
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t refId = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
    };

    PrefetcherParams p;
    /** Indexed by ref_id % tableEntries, grown to the highest index
     *  seen (reference ids are dense); empty while disabled. */
    std::vector<Entry> table;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_STRIDEPREFETCHER_HH
