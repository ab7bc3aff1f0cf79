/**
 * @file
 * EventQueue determinism battery for the calendar-queue rewrite.
 *
 * The queue's contract is exact FIFO ordering among events scheduled
 * for the same tick, regardless of whether they were held in a
 * near-future ring bucket or the far-future overflow heap. These
 * tests pin that contract down:
 *
 *  1. Same-tick FIFO within a bucket and across the bucket/overflow
 *     boundary (an event scheduled > ringSize ahead, then one for
 *     the same tick scheduled after the window slid over it).
 *  2. run(limit) semantics: executes everything <= limit, leaves the
 *     rest pending, and now() lands exactly on the limit.
 *  3. Scheduling in the past panics.
 *  4. A randomized property test against a reference
 *     std::priority_queue model with explicit (tick, seq) keys,
 *     including re-scheduling from inside callbacks.
 *  5. The node pool: a callback runs in place while it grows the
 *     pool under itself, the pool stays at its high-water mark
 *     however the ring is swept, and every callback is destroyed
 *     exactly once whether it ran or was still pending.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Logging.hh"
#include "sim/Rng.hh"

namespace spmcoh
{
namespace
{

/** Mirrors EventQueue's internal ring size (4096 one-tick buckets);
 *  offsets >= this land in the overflow heap. */
constexpr Tick farAhead = 4096;

TEST(EventQueue, SameTickFifoWithinBucket)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, SameTickFifoAcrossOverflowBoundary)
{
    // Event A goes to the overflow heap (scheduled far ahead); the
    // window then slides so the tick enters the ring, and events B, C
    // are appended directly. FIFO order must be A, B, C because A was
    // scheduled first.
    EventQueue eq;
    const Tick target = farAhead + 100;
    std::vector<char> order;
    eq.schedule(target, [&order] { order.push_back('A'); });
    // Slide the window past the boundary so `target` is ring-resident.
    eq.schedule(200, [&eq, &order, target] {
        eq.schedule(target, [&order] { order.push_back('B'); });
        eq.schedule(target, [&order] { order.push_back('C'); });
    });
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 'A');
    EXPECT_EQ(order[1], 'B');
    EXPECT_EQ(order[2], 'C');
}

TEST(EventQueue, OverflowMigrationPreservesScheduleOrder)
{
    // Two far-future events for the same tick, scheduled in order,
    // must fire in order after migrating from the heap to the ring.
    EventQueue eq;
    const Tick target = 3 * farAhead + 7;
    std::vector<int> order;
    eq.schedule(target, [&order] { order.push_back(1); });
    eq.schedule(target, [&order] { order.push_back(2); });
    // An intermediate event forces several window slides.
    eq.schedule(farAhead + 1, [] {});
    eq.schedule(2 * farAhead + 1, [] {});
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(EventQueue, RunLimitExecutesUpToAndIncludingLimit)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {Tick{3}, Tick{10}, Tick{11}, Tick{5000}, Tick{9000}})
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    EXPECT_FALSE(eq.run(10));
    EXPECT_EQ(eq.now(), 10u);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 3u);
    EXPECT_EQ(fired[1], 10u);
    EXPECT_EQ(eq.pending(), 3u);
    // A limit with no events still advances now() to the limit.
    EXPECT_FALSE(eq.run(4000));
    EXPECT_EQ(eq.now(), 4000u);
    EXPECT_EQ(fired.size(), 3u);
    // Draining the rest returns true.
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired.size(), 5u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_THROW(eq.schedule(99, [] {}), PanicError);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(4, [&fired] { ++fired; });
    eq.schedule(4, [&fired] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CallbackGrowingThePoolRunsInPlace)
{
    // One callback schedules three chunks' worth of events into its
    // own tick and the next, then reads its own captures: the pool
    // grows under it while it runs, so its node must not move (an
    // ASan build reports a use-after-free if it does).
    EventQueue eq;
    struct Ctx
    {
        EventQueue &eq;
        std::vector<std::uint32_t> order;
        std::size_t chunk = 0;
        bool capturesIntact = false;
    } ctx{eq, {}, 0, false};
    const std::array<std::uint64_t, 4> sentinel{
        0x0123456789abcdefull, 0xfedcba9876543210ull,
        0x5555aaaa5555aaaaull, 0xdeadbeefcafef00dull};
    auto grow = [c = &ctx, sentinel] {
        for (std::uint32_t i = 0; i < 3 * c->chunk; ++i)
            c->eq.schedule(10 + (i & 1),
                           [c, i] { c->order.push_back(i); });
        c->capturesIntact = sentinel[0] == 0x0123456789abcdefull &&
                            sentinel[1] == 0xfedcba9876543210ull &&
                            sentinel[2] == 0x5555aaaa5555aaaaull &&
                            sentinel[3] == 0xdeadbeefcafef00dull;
    };
    // Inline, so the captures live in the node itself.
    static_assert(sizeof(grow) <= EventQueue::Callback::inlineBytes);
    eq.schedule(10, std::move(grow));
    const std::size_t chunk = ctx.chunk = eq.capacity();
    ASSERT_GT(chunk, 0u);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(ctx.capturesIntact);
    EXPECT_GE(eq.capacity(), 3 * chunk);
    // Same-tick events first (even i), then the next tick (odd i),
    // each in schedule order.
    ASSERT_EQ(ctx.order.size(), 3 * chunk);
    std::size_t k = 0;
    for (std::uint32_t parity = 0; parity < 2; ++parity)
        for (std::uint32_t i = parity; i < 3 * chunk; i += 2, ++k)
            ASSERT_EQ(ctx.order[k], i) << "at position " << k;
}

TEST(EventQueue, PoolStaysAtBurstHighWaterMark)
{
    // A same-tick burst sizes the pool; afterwards three ring
    // revolutions of one event per tick reuse the freed nodes and
    // grow nothing, however many distinct ticks they touch.
    EventQueue eq;
    constexpr std::size_t burst = 5000;
    for (std::size_t i = 0; i < burst; ++i)
        eq.schedule(1, [] {});
    EXPECT_TRUE(eq.run());
    const std::size_t highWater = eq.capacity();
    EXPECT_GE(highWater, burst);

    std::uint64_t ticks = 0;
    std::function<void()> tick = [&] {
        if (++ticks < 3 * farAhead)
            eq.scheduleIn(1, [&tick] { tick(); });
    };
    eq.scheduleIn(1, [&tick] { tick(); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ticks, 3 * farAhead);
    EXPECT_EQ(eq.capacity(), highWater);
}

/**
 * Counts its own destruction once: a moved-from copy hands the count
 * on. @p Pad sizes the capture below or above SmallFunction's inline
 * buffer.
 */
template <std::size_t Pad>
struct Tracked
{
    explicit Tracked(int *d) : destroyed(d) {}
    Tracked(Tracked &&o) noexcept : destroyed(o.destroyed), owner(o.owner)
    {
        o.owner = false;
    }
    Tracked(const Tracked &) = delete;
    ~Tracked()
    {
        if (owner)
            ++*destroyed;
    }
    int *destroyed;
    bool owner = true;
    std::array<char, Pad> pad{};
};

TEST(EventQueue, DestroysEveryCallbackExactlyOnce)
{
    // Heap-fallback (> 48 B) and inline captures, inside and beyond
    // the ring; run(limit) stops with events still pending, and the
    // queue's destructor must destroy each of those exactly once.
    int destroyed = 0;
    int ran = 0;
    constexpr int perKind = 20;
    {
        EventQueue eq;
        for (int i = 0; i < perKind; ++i) {
            const Tick near = 1 + static_cast<Tick>(i);
            const Tick far = farAhead + 100 + static_cast<Tick>(i);
            for (const Tick when : {near, far}) {
                Tracked<64> big(&destroyed);
                static_assert(sizeof(big) > EventQueue::Callback::inlineBytes);
                eq.schedule(when, [&ran, t = std::move(big)] { ++ran; });
                Tracked<0> small(&destroyed);
                static_assert(sizeof(small) <=
                              EventQueue::Callback::inlineBytes);
                eq.schedule(when, [&ran, t = std::move(small)] { ++ran; });
            }
        }
        EXPECT_EQ(destroyed, 0);
        EXPECT_FALSE(eq.run(perKind / 2));
        EXPECT_EQ(ran, 2 * (perKind / 2));
        EXPECT_EQ(destroyed, ran);
        EXPECT_EQ(eq.pending(),
                  static_cast<std::size_t>(4 * perKind - ran));
    }
    EXPECT_EQ(destroyed, 4 * perKind);
}

/**
 * Reference model: a plain priority queue keyed by (tick, global
 * sequence number), i.e. the textbook definition of the contract the
 * calendar queue must reproduce.
 */
struct RefModel
{
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        int id;
        bool operator>(const Ev &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
    std::uint64_t nextSeq = 0;
    void push(Tick when, int id) { q.push(Ev{when, nextSeq++, id}); }
};

TEST(EventQueue, RandomizedAgainstReferenceModel)
{
    // Random schedule offsets straddling the ring/overflow boundary,
    // with a fraction of callbacks re-scheduling new events; the
    // execution order must match the reference model exactly.
    Rng rng(0xeceb00c5);
    EventQueue eq;
    RefModel ref;
    std::vector<int> got;
    int nextId = 0;

    // Re-scheduling callback machinery: each fired event may enqueue
    // follow-ups at deterministic pseudo-random offsets.
    std::function<void(int, int)> fire = [&](int id, int depth) {
        got.push_back(id);
        if (depth >= 2)
            return;
        const std::uint32_t n = rng.next() % 3;  // 0..2 follow-ups
        for (std::uint32_t k = 0; k < n; ++k) {
            // Offsets cluster around the boundary: 0..2*ringSize.
            const Tick off = rng.next() % (2 * farAhead);
            const Tick when = eq.now() + off;
            const int nid = nextId++;
            ref.push(when, nid);
            eq.schedule(when, [&fire, nid, depth] {
                fire(nid, depth + 1);
            });
        }
    };

    for (int i = 0; i < 500; ++i) {
        const Tick when = rng.next() % (3 * farAhead);
        const int id = nextId++;
        ref.push(when, id);
        eq.schedule(when, [&fire, id] { fire(id, 0); });
    }
    eq.run();

    // Drain the reference model in its well-defined order.
    std::vector<int> want;
    while (!ref.q.empty()) {
        want.push_back(ref.q.top().id);
        ref.q.pop();
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "divergence at event " << i;
}

} // namespace
} // namespace spmcoh
