/**
 * @file
 * Open-addressed hash table keyed by an address (usually a line
 * address) — the replacement for `unordered_map<Addr, V>` in the
 * memory hierarchy's per-line tables.
 *
 * Keys live in one flat array with ~0 marking an empty bucket (as in
 * CacheArray's tag array, ~0 is never a line- or page-aligned key);
 * values sit in a parallel array. Lookups probe linearly from a
 * Fibonacci hash of the key, and erase shifts the rest of the probe
 * run back into the hole instead of leaving a tombstone, so probe
 * runs never lengthen with churn. Nothing is allocated until the
 * first insert.
 *
 * Unlike a node-based map, a pointer or reference into the table is
 * only valid until the next insert or erase on it (either may move
 * values). There is deliberately no iteration: the
 * order of entries depends on the hash and must never reach the
 * simulated machine's output.
 */

#ifndef SPMCOH_SIM_LINEMAP_HH
#define SPMCOH_SIM_LINEMAP_HH

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/Logging.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Flat address-keyed map; V must be default-constructible. */
template <typename V>
class LineMap
{
  public:
    /** Key value of an empty bucket; never a valid key. */
    static constexpr Addr emptyKey = ~Addr(0);

    std::size_t size() const { return count; }
    /** Allocated buckets (0 before the first insert). */
    std::size_t bucketCount() const { return keys.size(); }

    /** Bucket where a probe for @p key starts. @pre bucketCount() */
    std::size_t
    homeBucket(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    V *
    find(Addr key)
    {
        const std::size_t i = locate(key);
        return i == npos ? nullptr : &vals[i];
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = locate(key);
        return i == npos ? nullptr : &vals[i];
    }

    bool contains(Addr key) const { return locate(key) != npos; }

    /** The value of @p key; panics with @p what if it is absent. */
    V &
    at(Addr key, const char *what)
    {
        V *v = find(key);
        if (!v)
            panic(what);
        return *v;
    }

    /**
     * Find @p key, inserting a default-constructed value if absent.
     * @return the value and whether it was inserted
     */
    std::pair<V *, bool>
    tryEmplace(Addr key)
    {
        if (key == emptyKey)
            panic("LineMap: key collides with the empty sentinel");
        if ((count + 1) * 4 > keys.size() * 3)
            grow();
        const std::size_t mask = keys.size() - 1;
        for (std::size_t i = homeBucket(key);; i = (i + 1) & mask) {
            if (keys[i] == key)
                return {&vals[i], false};
            if (keys[i] == emptyKey) {
                keys[i] = key;
                ++count;
                return {&vals[i], true};
            }
        }
    }

    V &operator[](Addr key) { return *tryEmplace(key).first; }

    /** Insert @p key -> @p v. @pre !contains(key) */
    void
    insert(Addr key, V v)
    {
        auto [slot, fresh] = tryEmplace(key);
        if (!fresh)
            panic("LineMap: duplicate insert");
        *slot = std::move(v);
    }

    /** Remove @p key. @return false if it was absent */
    bool
    erase(Addr key)
    {
        std::size_t hole = locate(key);
        if (hole == npos)
            return false;
        // Backward-shift: pull every later entry of the probe run
        // whose home bucket does not lie strictly after the hole.
        const std::size_t mask = keys.size() - 1;
        for (std::size_t j = (hole + 1) & mask; keys[j] != emptyKey;
             j = (j + 1) & mask) {
            const std::size_t home = homeBucket(keys[j]);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                keys[hole] = keys[j];
                vals[hole] = std::move(vals[j]);
                hole = j;
            }
        }
        keys[hole] = emptyKey;
        vals[hole] = V{};
        --count;
        return true;
    }

  private:
    static constexpr std::size_t npos = ~std::size_t(0);

    /** Buckets of the first allocation; the table doubles whenever
     *  an insert would push the load past 3/4. */
    static constexpr std::size_t initialBuckets = 8;

    std::size_t
    locate(Addr key) const
    {
        if (count == 0)
            return npos;
        const std::size_t mask = keys.size() - 1;
        for (std::size_t i = homeBucket(key);; i = (i + 1) & mask) {
            if (keys[i] == key)
                return i;
            if (keys[i] == emptyKey)
                return npos;
        }
    }

    void
    grow()
    {
        const std::size_t n =
            keys.empty() ? initialBuckets : keys.size() * 2;
        std::vector<Addr> old_keys =
            std::exchange(keys, std::vector<Addr>(n, emptyKey));
        std::vector<V> old_vals = std::exchange(vals, std::vector<V>(n));
        shift = 64 - std::countr_zero(n);
        const std::size_t mask = n - 1;
        for (std::size_t k = 0; k < old_keys.size(); ++k) {
            if (old_keys[k] == emptyKey)
                continue;
            std::size_t i = homeBucket(old_keys[k]);
            while (keys[i] != emptyKey)
                i = (i + 1) & mask;
            keys[i] = old_keys[k];
            vals[i] = std::move(old_vals[k]);
        }
    }

    std::vector<Addr> keys;
    std::vector<V> vals;
    std::size_t count = 0;
    unsigned shift = 64;
};

} // namespace spmcoh

#endif // SPMCOH_SIM_LINEMAP_HH
