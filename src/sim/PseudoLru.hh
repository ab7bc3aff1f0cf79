/**
 * @file
 * Tree-based pseudo-LRU replacement state, as used by the caches and
 * by the fully-associative filter structures (Table 1: pseudoLRU).
 *
 * For a set of N ways (N a power of two) the tree keeps N-1 bits; a
 * touch flips the bits along the way's path, and a victim walk follows
 * the cold direction. For non-power-of-two N we round up and re-walk
 * until a valid way is produced (bounded, deterministic).
 *
 * The tree bits live in a single 64-bit word when they fit (every
 * current user has <= 64 ways), so a touch is a few register ops;
 * wider configurations fall back to a bit vector transparently. The
 * word-level walks are also exposed as static functions, so an array
 * of many sets (CacheArray) can keep one bare word per set and the
 * way count once.
 */

#ifndef SPMCOH_SIM_PSEUDOLRU_HH
#define SPMCOH_SIM_PSEUDOLRU_HH

#include <cstdint>
#include <vector>

#include "sim/Types.hh"

namespace spmcoh
{

/** Pseudo-LRU tree over a fixed number of ways. */
class PseudoLru
{
  public:
    explicit PseudoLru(std::uint32_t ways_ = 1)
        : numWays(ways_), treeWays(1)
    {
        while (treeWays < numWays)
            treeWays <<= 1;
        if (treeWays > maxWordWays)
            bitsBig.assign(treeWays, false);
    }

    /** Mark @p way most-recently used. */
    void
    touch(std::uint32_t way)
    {
        if (treeWays <= maxWordWays)
            touchWord(bitsWord, treeWays, way);
        else
            touchPath(treeWays, way,
                      [this](std::uint32_t i, bool v) { bitsBig[i] = v; });
    }

    /** Pick a victim way (least recently used path). */
    std::uint32_t
    victim() const
    {
        if (treeWays <= maxWordWays)
            return victimWord(bitsWord, treeWays, numWays);
        return victimPath(treeWays, numWays,
                          [this](std::uint32_t i) { return bitsBig[i]; });
    }

    /** Largest tree (ways rounded up to a power of two) in one word. */
    static constexpr std::uint32_t maxWordWays = 64;

    /**
     * touch() on a bare tree word of @p tree_ways leaves.
     * @pre tree_ways is a power of two, at most maxWordWays
     */
    static void
    touchWord(std::uint64_t &bits, std::uint32_t tree_ways,
              std::uint32_t way)
    {
        touchPath(tree_ways, way, [&bits](std::uint32_t i, bool v) {
            const std::uint64_t mask = std::uint64_t{1} << i;
            bits = v ? (bits | mask) : (bits & ~mask);
        });
    }

    /**
     * victim() on a bare tree word of @p tree_ways leaves over
     * @p num_ways real ways.
     * @pre tree_ways is a power of two, at most maxWordWays
     */
    static std::uint32_t
    victimWord(std::uint64_t bits, std::uint32_t tree_ways,
               std::uint32_t num_ways)
    {
        return victimPath(tree_ways, num_ways, [bits](std::uint32_t i) {
            return ((bits >> i) & 1u) != 0;
        });
    }

  private:
    /** Flip the bits along @p way's path so the victim walk avoids it. */
    template <typename SetBit>
    static void
    touchPath(std::uint32_t tree_ways, std::uint32_t way, SetBit &&set_bit)
    {
        std::uint32_t node = 1;
        std::uint32_t lo = 0, hi = tree_ways;
        while (hi - lo > 1) {
            std::uint32_t mid = lo + (hi - lo) / 2;
            const bool right = way >= mid;
            // bit true means "recently went right", so victim goes left
            set_bit(node, right);
            node = node * 2 + (right ? 1 : 0);
            if (right) lo = mid; else hi = mid;
        }
    }

    /** Follow the cold direction from the root to a leaf. */
    template <typename GetBit>
    static std::uint32_t
    victimPath(std::uint32_t tree_ways, std::uint32_t num_ways,
               GetBit &&get_bit)
    {
        std::uint32_t node = 1;
        std::uint32_t lo = 0, hi = tree_ways;
        while (hi - lo > 1) {
            std::uint32_t mid = lo + (hi - lo) / 2;
            const bool goRight = !get_bit(node);
            node = node * 2 + (goRight ? 1 : 0);
            if (goRight) lo = mid; else hi = mid;
        }
        // With non-power-of-two way counts the walk can land on a
        // padding way; clamp to the last real way, which is a valid
        // (if slightly colder-biased) victim choice.
        return lo < num_ways ? lo : num_ways - 1;
    }

    std::uint32_t numWays;
    std::uint32_t treeWays;
    std::uint64_t bitsWord = 0;
    std::vector<bool> bitsBig;  ///< only used when treeWays > 64
};

} // namespace spmcoh

#endif // SPMCOH_SIM_PSEUDOLRU_HH
