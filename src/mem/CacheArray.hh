/**
 * @file
 * Generic set-associative, data-carrying cache array with tree
 * pseudo-LRU replacement (Table 1: all caches pseudoLRU).
 *
 * The array stores tags, per-line payload of type LineT, and exposes
 * lookup / insert-with-victim / invalidate. Coherence state lives in
 * LineT so the same array backs L1s, the L2 slices and the directory.
 *
 * Tags and payloads are kept in separate parallel arrays: the hot
 * lookup/peek scan strides over a contiguous 8-byte tag array (one or
 * two cache lines per set) instead of dragging the full payload
 * through the cache at sizeof(LineT) stride. A tag of badTag marks an
 * invalid way — ~0 can never be a line-aligned address, so no
 * separate valid bit is needed.
 *
 * Replacement state is one bare pseudo-LRU tree word per set, with
 * the tree size kept once for the array (PseudoLru::touchWord /
 * victimWord), so an array supports at most 64 ways.
 */

#ifndef SPMCOH_MEM_CACHEARRAY_HH
#define SPMCOH_MEM_CACHEARRAY_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/Logging.hh"
#include "sim/PseudoLru.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/**
 * Set-associative array of LineT indexed by line address.
 * @tparam LineT per-line payload (must be default constructible)
 */
template <typename LineT>
class CacheArray
{
  public:
    /**
     * @param num_sets number of sets (power of two, or 1 for FA)
     * @param num_ways associativity
     * @param index_shift low address bits skipped by the set index;
     *        slice-interleaved structures (NUCA L2, directory) must
     *        skip the slice-selection bits too or they use only
     *        1/num_slices of their sets
     */
    CacheArray(std::uint32_t num_sets, std::uint32_t num_ways,
               std::uint32_t index_shift = lineShift)
        : sets(num_sets), ways(num_ways), indexShift(index_shift),
          tags(static_cast<std::size_t>(num_sets) * num_ways, badTag),
          lines(static_cast<std::size_t>(num_sets) * num_ways),
          lruWays(std::bit_ceil(num_ways)), lru(num_sets, std::uint64_t{0})
    {
        if (!isPow2(num_sets))
            fatal("CacheArray: sets must be a power of two");
        if (num_ways == 0 || lruWays > PseudoLru::maxWordWays)
            fatal("CacheArray: ways must be 1..64");
    }

    std::uint32_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(
            (line_addr >> indexShift) & (sets - 1));
    }

    /** Find a line; returns payload pointer or nullptr. Updates LRU. */
    LineT *
    lookup(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        const std::uint32_t s = setIndex(line_addr);
        const std::size_t base = static_cast<std::size_t>(s) * ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[base + w] == line_addr) {
                touch(s, w);
                return &lines[base + w];
            }
        }
        return nullptr;
    }

    /** Find a line without touching replacement state. */
    const LineT *
    peek(Addr line_addr) const
    {
        line_addr = lineAlign(line_addr);
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * ways;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (tags[base + w] == line_addr)
                return &lines[base + w];
        return nullptr;
    }

    /**
     * Insert a line, evicting the pseudo-LRU victim if the set is
     * full. @return the evicted (addr, payload) if any.
     * @pre the line is not already present.
     */
    std::optional<std::pair<Addr, LineT>>
    insert(Addr line_addr, LineT line)
    {
        line_addr = lineAlign(line_addr);
        const std::uint32_t s = setIndex(line_addr);
        const std::size_t base = static_cast<std::size_t>(s) * ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[base + w] == badTag) {
                tags[base + w] = line_addr;
                lines[base + w] = std::move(line);
                touch(s, w);
                return std::nullopt;
            }
        }
        const std::uint32_t v = victim(s);
        std::pair<Addr, LineT> evicted{tags[base + v],
                                       std::move(lines[base + v])};
        tags[base + v] = line_addr;
        lines[base + v] = std::move(line);
        touch(s, v);
        return evicted;
    }

    /** Remove a line if present; returns its payload. */
    std::optional<LineT>
    invalidate(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[base + w] == line_addr) {
                tags[base + w] = badTag;
                return std::move(lines[base + w]);
            }
        }
        return std::nullopt;
    }

    /**
     * Pick a way for @p line_addr: an invalid way if one exists,
     * otherwise the pseudo-LRU victim if @p can_evict accepts its
     * address, otherwise any way whose occupant @p can_evict accepts.
     * @return way index, or nullopt if every occupant is pinned
     */
    template <typename Pred>
    std::optional<std::uint32_t>
    allocWay(Addr line_addr, Pred &&can_evict) const
    {
        const std::uint32_t s = setIndex(lineAlign(line_addr));
        const std::size_t base = static_cast<std::size_t>(s) * ways;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (tags[base + w] == badTag)
                return w;
        const std::uint32_t v = victim(s);
        if (can_evict(tags[base + v]))
            return v;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (can_evict(tags[base + w]))
                return w;
        return std::nullopt;
    }

    /** Address currently occupying (set of @p line_addr, @p way). */
    std::optional<Addr>
    occupant(Addr line_addr, std::uint32_t way) const
    {
        const Addr t = tags[static_cast<std::size_t>(
                                setIndex(lineAlign(line_addr))) * ways
                            + way];
        return t != badTag ? std::optional<Addr>(t) : std::nullopt;
    }

    /** Install @p line into @p way, replacing any occupant. */
    void
    fillWay(Addr line_addr, std::uint32_t way, LineT line)
    {
        line_addr = lineAlign(line_addr);
        const std::uint32_t s = setIndex(line_addr);
        const std::size_t base = static_cast<std::size_t>(s) * ways;
        tags[base + way] = line_addr;
        lines[base + way] = std::move(line);
        touch(s, way);
    }

    /** Count of valid lines (tests / occupancy stats). */
    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const Addr t : tags)
            if (t != badTag)
                ++n;
        return n;
    }

  private:
    /// Invalid-way sentinel; never a line-aligned address.
    static constexpr Addr badTag = ~Addr{0};

    void touch(std::uint32_t s, std::uint32_t w)
    { PseudoLru::touchWord(lru[s], lruWays, w); }

    std::uint32_t victim(std::uint32_t s) const
    { return PseudoLru::victimWord(lru[s], lruWays, ways); }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t indexShift;
    std::vector<Addr> tags;   ///< badTag where the way is invalid
    std::vector<LineT> lines; ///< payload parallel to tags
    std::uint32_t lruWays;    ///< ways rounded up to a power of two
    std::vector<std::uint64_t> lru; ///< one pseudo-LRU tree per set
};

} // namespace spmcoh

#endif // SPMCOH_MEM_CACHEARRAY_HH
