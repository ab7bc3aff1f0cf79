/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, the
 * pseudo-LRU tree, the deterministic RNG and the stats package.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/PseudoLru.hh"
#include "sim/Rng.hh"
#include "sim/Stats.hh"
#include "sim/Types.hh"

namespace spmcoh
{
namespace
{

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickEventsAreFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 10)
            eq.scheduleIn(7, chain);
    };
    eq.scheduleIn(7, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 70u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue eq;
    bool late = false;
    eq.schedule(10, [] {});
    eq.schedule(100, [&] { late = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(late);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int n = 0;
    eq.schedule(1, [&] { ++n; });
    eq.schedule(2, [&] { ++n; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(n, 2);
}

TEST(PseudoLru, SequentialTouchesMakeOldestVictim)
{
    PseudoLru lru(4);
    // Touch every way in order: the tree pseudo-LRU victim walk must
    // land on the oldest (way 0).
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    lru.touch(3);
    EXPECT_EQ(lru.victim(), 0u);
    // And never the most recently touched way.
    lru.touch(2);
    EXPECT_NE(lru.victim(), 2u);
}

TEST(PseudoLru, TouchProtectsRecentlyUsed)
{
    PseudoLru lru(8);
    for (std::uint32_t round = 0; round < 100; ++round) {
        const std::uint32_t v = lru.victim();
        lru.touch(v);
        // The victim right after a touch must differ.
        EXPECT_NE(lru.victim(), v);
    }
}

TEST(PseudoLru, WordWalkMatchesObject)
{
    // CacheArray keeps bare tree words; their walks must pick exactly
    // the victims a PseudoLru object would.
    Rng rng(0x1a7e);
    for (const std::uint32_t ways : {1u, 2u, 3u, 4u, 12u, 16u, 48u, 64u}) {
        PseudoLru lru(ways);
        std::uint64_t word = 0;
        const std::uint32_t treeWays = std::bit_ceil(ways);
        for (int i = 0; i < 500; ++i) {
            ASSERT_EQ(PseudoLru::victimWord(word, treeWays, ways),
                      lru.victim()) << ways << " ways, step " << i;
            const std::uint32_t w = rng.next() % ways;
            lru.touch(w);
            PseudoLru::touchWord(word, treeWays, w);
        }
    }
}

TEST(PseudoLru, NonPow2WaysStaysInRange)
{
    PseudoLru lru(48);
    for (std::uint32_t i = 0; i < 48; ++i)
        lru.touch(i);
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t v = lru.victim();
        EXPECT_LT(v, 48u);
        lru.touch(v);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t x = a.next();
        EXPECT_EQ(x, b.next());
        diverged = diverged || x != c.next();
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, BelowStaysInBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, UniformCoversRange)
{
    Rng r(9);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.95);
}

TEST(Stats, CountersAccumulateAndDump)
{
    StatGroup g("grp");
    ++g.counter("a");
    g.counter("a") += 4;
    ++g.counter("b");
    EXPECT_EQ(g.value("a"), 5u);
    EXPECT_EQ(g.value("b"), 1u);
    EXPECT_EQ(g.value("missing"), 0u);
    g.reset();
    EXPECT_EQ(g.value("a"), 0u);
}

TEST(Stats, HistogramBucketsAndMean)
{
    Histogram h({10, 100});
    h.sample(5);
    h.sample(50);
    h.sample(500);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 50 + 500) / 3.0);
    EXPECT_EQ(h.bucketCounts()[0], 1u);
    EXPECT_EQ(h.bucketCounts()[1], 1u);
    EXPECT_EQ(h.bucketCounts()[2], 1u);
    EXPECT_EQ(h.maxValue(), 500u);
}

TEST(Stats, HistogramEdgeAndOverflowBucketing)
{
    // Values exactly on an edge stay in that edge's bucket; values
    // past the last edge go to the overflow bucket (the convention
    // the former linear scan implemented, now a binary search).
    Histogram h({10, 100, 1000});
    h.sample(0);
    h.sample(10);     // on the first edge -> bucket 0
    h.sample(11);     // just past it      -> bucket 1
    h.sample(100);    // on the second edge -> bucket 1
    h.sample(101);    // -> bucket 2
    h.sample(1000);   // on the last edge  -> bucket 2
    h.sample(1001);   // -> overflow
    h.sample(~0ull);  // max value         -> overflow
    EXPECT_EQ(h.bucketCounts()[0], 2u);
    EXPECT_EQ(h.bucketCounts()[1], 2u);
    EXPECT_EQ(h.bucketCounts()[2], 2u);
    EXPECT_EQ(h.bucketCounts()[3], 2u);
    EXPECT_EQ(h.samples(), 8u);
    EXPECT_EQ(h.maxValue(), ~0ull);
}

TEST(Stats, HistogramWithoutEdgesHasOnlyOverflow)
{
    Histogram h;
    h.sample(0);
    h.sample(123456);
    ASSERT_EQ(h.bucketCounts().size(), 1u);
    EXPECT_EQ(h.bucketCounts()[0], 2u);
}

TEST(Stats, VisitorWalksCountersAndHistograms)
{
    StatGroup g("grp");
    g.counter("a") += 7;
    g.histogram("lat", {10}).sample(3);
    g.histogram("lat").sample(30);  // existing: edges arg ignored

    struct Collector final : StatVisitor
    {
        std::string group;
        std::map<std::string, std::uint64_t> scalars;
        std::map<std::string, std::uint64_t> histSamples;
        void beginGroup(const std::string &n) override { group = n; }
        void
        scalar(const std::string &k, std::uint64_t v) override
        {
            scalars[k] = v;
        }
        void
        histogram(const std::string &k, const Histogram &h) override
        {
            histSamples[k] = h.samples();
        }
    } c;
    g.accept(c);
    EXPECT_EQ(c.group, "grp");
    EXPECT_EQ(c.scalars.at("a"), 7u);
    EXPECT_EQ(c.histSamples.at("lat"), 2u);
}

/** Records every statistic a group exports, in visit order. */
struct OrderCollector final : StatVisitor
{
    std::vector<std::pair<std::string, std::uint64_t>> scalars;
    std::vector<std::string> hists;
    void
    scalar(const std::string &k, std::uint64_t v) override
    {
        scalars.emplace_back(k, v);
    }
    void
    histogram(const std::string &k, const Histogram &) override
    {
        hists.push_back(k);
    }
};

/** A component whose statistics are members, declared unsorted. */
struct MemberStats
{
    StatGroup stats{"comp"};
    Counter zeta{stats, "zeta"};
    Counter alpha{stats, "alpha"};
    Histogram lat{stats, "lat", {10, 20}};
    Counter mid{stats, "mid"};
    Histogram depth{stats, "depth", {1}};
};

TEST(Stats, MemberCountersExportInKeyOrder)
{
    MemberStats m;
    ++m.zeta;
    m.alpha += 3;
    m.mid += 2;
    m.lat.sample(15);
    OrderCollector c;
    m.stats.accept(c);
    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"alpha", 3}, {"mid", 2}, {"zeta", 1}};
    EXPECT_EQ(c.scalars, want);
    EXPECT_EQ(c.hists, (std::vector<std::string>{"depth", "lat"}));
    EXPECT_EQ(m.stats.value("alpha"), 3u);
    EXPECT_EQ(m.stats.histogram("lat").samples(), 1u);
}

TEST(Stats, ByNameAndMemberCountersShareAGroup)
{
    MemberStats m;
    m.mid += 5;
    m.stats.counter("beta") += 4;
    // By name, a member counter is the member itself.
    ++m.stats.counter("mid");
    EXPECT_EQ(m.mid.value(), 6u);
    EXPECT_EQ(&m.stats.counter("beta"), &m.stats.counter("beta"));
    OrderCollector c;
    m.stats.accept(c);
    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"alpha", 0}, {"beta", 4}, {"mid", 6}, {"zeta", 0}};
    EXPECT_EQ(c.scalars, want);
}

TEST(Stats, DuplicateNamePanics)
{
    StatGroup g("grp");
    Counter a(g, "a");
    EXPECT_THROW(Counter(g, "a"), PanicError);
    // Counters and histograms share one namespace per group.
    EXPECT_THROW(Histogram(g, "a", {1}), PanicError);
    Histogram h(g, "h", {1});
    EXPECT_THROW(Counter(g, "h"), PanicError);
    EXPECT_THROW(g.counter("h"), PanicError);
}

TEST(Stats, HistogramAtEdgeCapacity)
{
    std::vector<std::uint64_t> edges;
    for (std::uint64_t i = 1; i <= Histogram::maxEdges; ++i)
        edges.push_back(i * 10);
    Histogram h(edges);
    ASSERT_EQ(h.bucketEdges().size(), Histogram::maxEdges);
    ASSERT_EQ(h.bucketCounts().size(), Histogram::maxEdges + 1);
    for (std::uint64_t v = 0; v <= (Histogram::maxEdges + 1) * 10; ++v)
        h.sample(v);
    // Bucket 0 holds 0..10, bucket i holds (10i, 10(i+1)], and the
    // overflow bucket the ten values past the last edge.
    EXPECT_EQ(h.bucketCounts()[0], 11u);
    for (std::size_t i = 1; i < Histogram::maxEdges; ++i)
        EXPECT_EQ(h.bucketCounts()[i], 10u) << "bucket " << i;
    EXPECT_EQ(h.bucketCounts()[Histogram::maxEdges], 10u);

    edges.push_back((Histogram::maxEdges + 1) * 10);
    EXPECT_THROW(Histogram{edges}, PanicError);
    StatGroup g("grp");
    EXPECT_THROW(g.histogram("big", edges), PanicError);
}

TEST(Stats, ResetClearsMemberAndByNameStatistics)
{
    MemberStats m;
    m.alpha += 2;
    m.lat.sample(100);
    m.stats.counter("byName") += 9;
    m.stats.histogram("byNameLat", {5}).sample(1);
    m.stats.reset();
    EXPECT_EQ(m.alpha.value(), 0u);
    EXPECT_EQ(m.stats.value("byName"), 0u);
    EXPECT_EQ(m.lat.samples(), 0u);
    EXPECT_EQ(m.lat.maxValue(), 0u);
    EXPECT_EQ(m.lat.bucketCounts()[2], 0u);
    EXPECT_EQ(m.stats.histogram("byNameLat").samples(), 0u);
    EXPECT_EQ(m.stats.histogram("byNameLat").bucketCounts()[0], 0u);
}

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineOffset(0x12345), 5u);
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(48));
    EXPECT_EQ(log2i(4096), 12u);
    EXPECT_EQ(divCeil(10, 4), 3u);
}

} // namespace
} // namespace spmcoh
