/**
 * @file
 * Per-core filter of GM base addresses known not to be mapped to any
 * SPM (Sec. 3.1; Table 1: 48 entries, fully associative, pseudoLRU).
 *
 * A filter hit lets a potentially incoherent access proceed to the
 * cache hierarchy without any remote check, which is the common case
 * the protocol is optimized for. Like the SPMDir it is one flat base
 * array with SpmDir::invalidBase marking free entries.
 */

#ifndef SPMCOH_COHERENCE_FILTER_HH
#define SPMCOH_COHERENCE_FILTER_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "coherence/SpmDir.hh"
#include "sim/Logging.hh"
#include "sim/PseudoLru.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Fully-associative not-mapped filter. */
class Filter
{
  public:
    explicit Filter(std::uint32_t entries_ = 48)
        : bases(entries_, SpmDir::invalidBase), lru(entries_)
    {}

    std::uint32_t entries() const
    { return static_cast<std::uint32_t>(bases.size()); }

    /** Lookup; touches replacement state on hit. */
    bool
    lookup(Addr base)
    {
        const std::int32_t i = find(base);
        if (i < 0)
            return false;
        lru.touch(static_cast<std::uint32_t>(i));
        return true;
    }

    /** Lookup without touching replacement state. */
    bool contains(Addr base) const { return find(base) >= 0; }

    /**
     * Insert a base; no-op if present.
     * @return the evicted base if the filter was full
     */
    std::optional<Addr>
    insert(Addr base)
    {
        if (base == SpmDir::invalidBase)
            panic("Filter: base collides with the invalid sentinel");
        std::uint32_t free = entries();
        for (std::uint32_t i = 0; i < bases.size(); ++i) {
            if (bases[i] == base) {
                lru.touch(i);
                return std::nullopt;
            }
            if (bases[i] == SpmDir::invalidBase && free == entries())
                free = i;
        }
        if (free != entries()) {
            bases[free] = base;
            lru.touch(free);
            return std::nullopt;
        }
        const std::uint32_t v = lru.victim();
        const Addr evicted = bases[v];
        bases[v] = base;
        lru.touch(v);
        return evicted;
    }

    /** Drop a base (FilterDir-initiated invalidation, Fig. 6a). */
    bool
    invalidate(Addr base)
    {
        const std::int32_t i = find(base);
        if (i < 0)
            return false;
        bases[static_cast<std::size_t>(i)] = SpmDir::invalidBase;
        return true;
    }

    /** Drop everything (context switch / power gating). */
    void
    clear()
    {
        std::fill(bases.begin(), bases.end(), SpmDir::invalidBase);
    }

    std::uint32_t
    occupancy() const
    {
        return static_cast<std::uint32_t>(
            bases.size() - static_cast<std::size_t>(std::count(
                               bases.begin(), bases.end(),
                               SpmDir::invalidBase)));
    }

  private:
    /** Lowest entry holding @p base, or -1. */
    std::int32_t
    find(Addr base) const
    {
        for (std::uint32_t i = 0; i < bases.size(); ++i)
            if (bases[i] == base)
                return static_cast<std::int32_t>(i);
        return -1;
    }

    /** Cached bases; SpmDir::invalidBase marks a free entry. */
    std::vector<Addr> bases;
    PseudoLru lru;
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_FILTER_HH
