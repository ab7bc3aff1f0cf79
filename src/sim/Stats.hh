/**
 * @file
 * Minimal statistics package: named scalar counters and histograms
 * grouped per component, with a visitor interface for serialization.
 *
 * Modeled on gem5's Stats package but reduced to what the evaluation
 * needs: counters, derived ratios at dump time, histograms for
 * latency distributions, and a visitor so result sinks (table / CSV /
 * JSON) can walk every statistic without knowing its storage.
 */

#ifndef SPMCOH_SIM_STATS_HH
#define SPMCOH_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spmcoh
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

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
 * last bucket edge land in the overflow bucket.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> edges_ = {})
        : edges(std::move(edges_)), buckets(edges.size() + 1, 0) {}

    void
    sample(std::uint64_t v)
    {
        // Binary search for the first edge >= v (the bucket whose
        // inclusive upper edge covers v); past-the-end selects the
        // overflow bucket.
        const std::size_t i = static_cast<std::size_t>(
            std::lower_bound(edges.begin(), edges.end(), v) -
            edges.begin());
        ++buckets[i];
        sum += v;
        ++count;
        if (v > maxV) maxV = v;
    }

    std::uint64_t samples() const { return count; }
    std::uint64_t total() const { return sum; }
    double mean() const { return count ? double(sum) / count : 0.0; }
    std::uint64_t maxValue() const { return maxV; }
    const std::vector<std::uint64_t> &bucketEdges() const
    { return edges; }
    const std::vector<std::uint64_t> &bucketCounts() const
    { return buckets; }

    void
    reset()
    {
        std::fill(buckets.begin(), buckets.end(), 0);
        sum = 0;
        count = 0;
        maxV = 0;
    }

  private:
    std::vector<std::uint64_t> edges;
    std::vector<std::uint64_t> buckets;
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
 * A flat group of named counters and histograms belonging to one
 * component. Components embed a StatGroup and register statistics by
 * name; the System aggregates groups for dumping and export.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name_ = "") : _name(std::move(name_)) {}

    const std::string &name() const { return _name; }

    /** Get-or-create a counter. */
    Counter &
    counter(const std::string &key)
    {
        return counters[key];
    }

    /** Read a counter value; 0 if absent. */
    std::uint64_t
    value(const std::string &key) const
    {
        auto it = counters.find(key);
        return it == counters.end() ? 0 : it->second.value();
    }

    /** Get-or-create a histogram (edges fixed on first creation). */
    Histogram &
    histogram(const std::string &key,
              std::vector<std::uint64_t> edges = {})
    {
        auto it = hists.find(key);
        if (it == hists.end())
            it = hists.emplace(key, Histogram(std::move(edges)))
                     .first;
        return it->second;
    }

    void
    reset()
    {
        for (auto &kv : counters)
            kv.second.reset();
        for (auto &kv : hists)
            kv.second.reset();
    }

    /** Walk every statistic in this group. */
    void
    accept(StatVisitor &v) const
    {
        v.beginGroup(_name);
        for (const auto &kv : counters)
            v.scalar(kv.first, kv.second.value());
        for (const auto &kv : hists)
            v.histogram(kv.first, kv.second);
        v.endGroup();
    }

  private:
    std::string _name;
    std::map<std::string, Counter> counters;
    std::map<std::string, Histogram> hists;
};

} // namespace spmcoh

#endif // SPMCOH_SIM_STATS_HH
