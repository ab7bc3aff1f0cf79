/**
 * @file
 * Generic set-associative cache array with tree pseudo-LRU
 * replacement (Table 1: all caches pseudoLRU).
 *
 * The array stores tags and a small per-line record of type LineT,
 * and exposes lookup / insert-with-victim / invalidate. Coherence
 * state lives in LineT so the same array backs L1s, the L2 slices and
 * the directory; line payloads, where a cache has them, live in the
 * system's LinePool and the record names the slot.
 *
 * Storage is allocated per set, when a line is first installed in it.
 * A set's block is set-major: its tags, then its pseudo-LRU tree
 * word, then its records. The index keeps one block pointer per set;
 * a set that never held a line has none, and lookups in it answer
 * "absent" without reading tag memory. Blocks come from 4 KiB chunks;
 * they never move and are never freed, so an emptied set keeps its
 * replacement history. A tag of badTag marks an invalid way: ~0 can
 * never be a line-aligned address, so no separate valid bit is
 * needed.
 *
 * The tree size is kept once for the array (PseudoLru::touchWord /
 * victimWord), so an array supports at most 64 ways.
 */

#ifndef SPMCOH_MEM_CACHEARRAY_HH
#define SPMCOH_MEM_CACHEARRAY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/Logging.hh"
#include "sim/PseudoLru.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/**
 * Set-associative array of LineT indexed by line address.
 * @tparam LineT per-line record (default constructible, trivially
 *         copyable, at most 8-byte aligned)
 */
template <typename LineT>
class CacheArray
{
    static_assert(std::is_trivially_copyable_v<LineT> &&
                      std::is_trivially_destructible_v<LineT>,
                  "records live in raw set blocks");
    static_assert(alignof(LineT) <= alignof(Addr),
                  "records follow the tag words of a block");

  public:
    /** What insert() did: the new line's record and any victim. */
    struct Inserted
    {
        LineT *line;
        std::optional<std::pair<Addr, LineT>> evicted;
    };

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
          lruWays(std::bit_ceil(num_ways)),
          blockWords(num_ways + 1 +
                     divCeil(std::uint64_t{num_ways} * sizeof(LineT),
                             sizeof(Addr))),
          blocksPerChunk(std::max<std::size_t>(
              1, chunkBytes / (blockWords * sizeof(Addr)))),
          index(num_sets, nullptr)
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

    /** Find a line; returns its record or nullptr. Updates LRU. */
    LineT *
    lookup(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        Addr *const tags = index[setIndex(line_addr)];
        if (!tags)
            return nullptr;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[w] == line_addr) {
                touch(tags, w);
                return records(tags) + w;
            }
        }
        return nullptr;
    }

    /** Find a line without touching replacement state. */
    const LineT *
    peek(Addr line_addr) const
    {
        line_addr = lineAlign(line_addr);
        const Addr *const tags = index[setIndex(line_addr)];
        if (!tags)
            return nullptr;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (tags[w] == line_addr)
                return records(tags) + w;
        return nullptr;
    }

    /**
     * Insert a line, evicting the pseudo-LRU victim if the set is
     * full.
     * @pre the line is not already present.
     */
    Inserted
    insert(Addr line_addr, LineT line)
    {
        line_addr = lineAlign(line_addr);
        Addr *const tags = blockFor(setIndex(line_addr));
        LineT *const recs = records(tags);
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[w] == badTag) {
                tags[w] = line_addr;
                recs[w] = line;
                touch(tags, w);
                return {recs + w, std::nullopt};
            }
        }
        const std::uint32_t v = victim(tags);
        Inserted out{recs + v, std::pair<Addr, LineT>{tags[v], recs[v]}};
        tags[v] = line_addr;
        recs[v] = line;
        touch(tags, v);
        return out;
    }

    /** Remove a line if present; returns its record. */
    std::optional<LineT>
    invalidate(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        Addr *const tags = index[setIndex(line_addr)];
        if (!tags)
            return std::nullopt;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[w] == line_addr) {
                tags[w] = badTag;
                return records(tags)[w];
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
        const Addr *const tags = index[setIndex(lineAlign(line_addr))];
        if (!tags)
            return 0u;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (tags[w] == badTag)
                return w;
        const std::uint32_t v = victim(tags);
        if (can_evict(tags[v]))
            return v;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (can_evict(tags[w]))
                return w;
        return std::nullopt;
    }

    /** Address currently occupying (set of @p line_addr, @p way). */
    std::optional<Addr>
    occupant(Addr line_addr, std::uint32_t way) const
    {
        const Addr *const tags = index[setIndex(lineAlign(line_addr))];
        if (!tags || tags[way] == badTag)
            return std::nullopt;
        return tags[way];
    }

    /** Install @p line into @p way, replacing any occupant. */
    void
    fillWay(Addr line_addr, std::uint32_t way, LineT line)
    {
        line_addr = lineAlign(line_addr);
        Addr *const tags = blockFor(setIndex(line_addr));
        tags[way] = line_addr;
        records(tags)[way] = line;
        touch(tags, way);
    }

    /** Count of valid lines (tests / occupancy stats). */
    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const Addr *tags : index)
            if (tags)
                n += static_cast<std::uint64_t>(
                    std::count_if(tags, tags + ways, [](Addr t) {
                        return t != badTag;
                    }));
        return n;
    }

    /** Sets that have a block (tests). */
    std::size_t blocks() const { return numBlocks; }

  private:
    /// Invalid-way sentinel; never a line-aligned address.
    static constexpr Addr badTag = ~Addr{0};
    /// Block chunk size in bytes (at least one block per chunk).
    static constexpr std::size_t chunkBytes = 4096;

    /** The records of the block whose tags start at @p tags. */
    LineT *
    records(Addr *tags) const
    {
        return std::launder(reinterpret_cast<LineT *>(tags + ways + 1));
    }
    const LineT *
    records(const Addr *tags) const
    {
        return std::launder(
            reinterpret_cast<const LineT *>(tags + ways + 1));
    }

    void touch(Addr *tags, std::uint32_t w)
    { PseudoLru::touchWord(tags[ways], lruWays, w); }

    std::uint32_t victim(const Addr *tags) const
    { return PseudoLru::victimWord(tags[ways], lruWays, ways); }

    /** Set @p s's block, allocated with every way invalid and a
     *  fresh tree word when the set gets its first line. */
    Addr *
    blockFor(std::uint32_t s)
    {
        if (Addr *const tags = index[s])
            return tags;
        const std::size_t i = numBlocks % blocksPerChunk;
        if (i == 0)
            chunks.push_back(std::make_unique_for_overwrite<Addr[]>(
                blocksPerChunk * blockWords));
        Addr *const tags = chunks.back().get() + i * blockWords;
        ++numBlocks;
        std::fill_n(tags, ways, badTag);
        tags[ways] = 0;
        auto *const recs = reinterpret_cast<LineT *>(tags + ways + 1);
        for (std::uint32_t w = 0; w < ways; ++w)
            ::new (static_cast<void *>(recs + w)) LineT();
        index[s] = tags;
        return tags;
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t indexShift;
    std::uint32_t lruWays;      ///< ways rounded up to a power of two
    std::size_t blockWords;     ///< tags + tree word + records, in Addrs
    std::size_t blocksPerChunk;
    /** Each set's block (its first tag), or nullptr before its first
     *  line. */
    std::vector<Addr *> index;
    std::vector<std::unique_ptr<Addr[]>> chunks;
    std::size_t numBlocks = 0;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_CACHEARRAY_HH
