/**
 * @file
 * Minimal statistics package: named scalar counters and histograms
 * grouped per component, with a visitor interface for serialization.
 *
 * Modeled on gem5's Stats package but reduced to what the evaluation
 * needs: counters, derived ratios at dump time, histograms for
 * latency distributions, and a visitor so result sinks (table / CSV /
 * JSON) can walk every statistic without knowing its storage.
 * Statistics are members of the component that bumps them (see
 * StatGroup).
 */

#ifndef SPMCOH_SIM_STATS_HH
#define SPMCOH_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/Logging.hh"

namespace spmcoh
{

class StatGroup;

/**
 * A named monotonically increasing counter. A group keeps a pointer
 * to a registered counter, so counters are neither copied nor moved.
 */
class Counter
{
  public:
    Counter() = default;
    /** A counter registered with @p g as @p key. */
    Counter(StatGroup &g, std::string key);
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t d) { val += d; return *this; }
    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/**
 * A fixed-bucket histogram for latency/occupancy distributions.
 * Bucket i counts values in (edges[i-1], edges[i]]; values beyond the
 * last bucket edge land in the overflow bucket. Edges and buckets are
 * inline arrays of at most maxEdges edges, so a sample touches only
 * the histogram itself.
 */
class Histogram
{
  public:
    static constexpr std::size_t maxEdges = 12;

    explicit Histogram(const std::vector<std::uint64_t> &edges_ = {})
    {
        if (edges_.size() > maxEdges)
            panic("Histogram: more than " + std::to_string(maxEdges) +
                  " bucket edges");
        std::copy(edges_.begin(), edges_.end(), edges.begin());
        nEdges = static_cast<std::uint32_t>(edges_.size());
    }
    /** A histogram registered with @p g as @p key. */
    Histogram(StatGroup &g, std::string key,
              const std::vector<std::uint64_t> &edges_);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void
    sample(std::uint64_t v)
    {
        // Binary search for the first edge >= v (the bucket whose
        // inclusive upper edge covers v); past-the-end selects the
        // overflow bucket.
        const std::uint64_t *e = edges.data();
        ++buckets[static_cast<std::size_t>(
            std::lower_bound(e, e + nEdges, v) - e)];
        sum += v;
        ++count;
        if (v > maxV) maxV = v;
    }

    std::uint64_t samples() const { return count; }
    std::uint64_t total() const { return sum; }
    double mean() const { return count ? double(sum) / count : 0.0; }
    std::uint64_t maxValue() const { return maxV; }
    std::span<const std::uint64_t> bucketEdges() const
    { return {edges.data(), nEdges}; }
    std::span<const std::uint64_t> bucketCounts() const
    { return {buckets.data(), nEdges + 1u}; }

    void
    reset()
    {
        buckets.fill(0);
        sum = 0;
        count = 0;
        maxV = 0;
    }

  private:
    std::array<std::uint64_t, maxEdges> edges{};
    std::array<std::uint64_t, maxEdges + 1> buckets{};
    std::uint32_t nEdges = 0;
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    std::uint64_t maxV = 0;
};

/**
 * Serialization visitor over a StatGroup (or a whole System's worth
 * of them). Result sinks implement this to export statistics without
 * depending on how components store them.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void beginGroup(const std::string &name) { (void)name; }
    virtual void endGroup() {}
    virtual void scalar(const std::string &key,
                        std::uint64_t value) = 0;
    virtual void
    histogram(const std::string &key, const Histogram &h)
    {
        (void)key;
        (void)h;
    }
};

/**
 * The named statistics of one component. A component's counters and
 * histograms are its members, declared after its StatGroup and
 * registered by name at construction (`Counter stGetS{stats,
 * "getS"};`), so the hot path bumps a field of the component and
 * looks nothing up. counter() and histogram() create a statistic by
 * name, for those known only at run end. The registry is sorted by
 * name, so accept() exports counters, then histograms, in key order.
 * It points into the component: a group is neither copied nor moved.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name_ = "") : _name(std::move(name_)) {}
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Get-or-create a counter. */
    Counter &
    counter(const std::string &key)
    {
        if (const Entry *e = find(key); e && e->counter)
            return *e->counter;
        return *owned.emplace_back(std::make_unique<Counter>(*this, key));
    }

    /** Read a counter value; 0 if absent. */
    std::uint64_t
    value(std::string_view key) const
    {
        const Entry *e = find(key);
        return e && e->counter ? e->counter->value() : 0;
    }

    /** Get-or-create a histogram (edges fixed on first creation). */
    Histogram &
    histogram(const std::string &key,
              const std::vector<std::uint64_t> &edges = {})
    {
        if (const Entry *e = find(key); e && e->hist)
            return *e->hist;
        return *ownedHists.emplace_back(
            std::make_unique<Histogram>(*this, key, edges));
    }

    void
    reset()
    {
        for (const Entry &e : reg) {
            if (e.counter)
                e.counter->reset();
            else
                e.hist->reset();
        }
    }

    /** Walk every statistic in this group. */
    void
    accept(StatVisitor &v) const
    {
        v.beginGroup(_name);
        for (const Entry &e : reg)
            if (e.counter)
                v.scalar(e.key, e.counter->value());
        for (const Entry &e : reg)
            if (e.hist)
                v.histogram(e.key, *e.hist);
        v.endGroup();
    }

  private:
    friend class Counter;
    friend class Histogram;

    /** A registered statistic: a counter or a histogram. */
    struct Entry
    {
        std::string key;
        Counter *counter;
        Histogram *hist;
    };

    /** The first entry whose key is not below @p key. */
    std::vector<Entry>::const_iterator
    lowerBound(std::string_view key) const
    {
        return std::lower_bound(
            reg.begin(), reg.end(), key,
            [](const Entry &e, std::string_view k) { return e.key < k; });
    }

    const Entry *
    find(std::string_view key) const
    {
        const auto it = lowerBound(key);
        return it != reg.end() && it->key == key ? &*it : nullptr;
    }

    /** Register a statistic; a name is used once per group. */
    void
    add(std::string key, Counter *c, Histogram *h)
    {
        const auto at = lowerBound(key);
        if (at != reg.end() && at->key == key)
            panic("StatGroup " + _name + ": duplicate statistic '" +
                  key + "'");
        reg.insert(at, Entry{std::move(key), c, h});
    }

    std::string _name;
    std::vector<Entry> reg;  ///< sorted by key
    /** Storage of the statistics created by name. */
    std::vector<std::unique_ptr<Counter>> owned;
    std::vector<std::unique_ptr<Histogram>> ownedHists;
};

inline
Counter::Counter(StatGroup &g, std::string key)
{
    g.add(std::move(key), this, nullptr);
}

inline
Histogram::Histogram(StatGroup &g, std::string key,
                     const std::vector<std::uint64_t> &edges_)
    : Histogram(edges_)
{
    g.add(std::move(key), nullptr, this);
}

} // namespace spmcoh

#endif // SPMCOH_SIM_STATS_HH
