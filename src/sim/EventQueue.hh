/**
 * @file
 * Discrete event queue driving the whole simulation.
 *
 * Events are arbitrary callables scheduled at an absolute tick.
 * Ties are broken by insertion order (FIFO among same-tick events),
 * which keeps the simulation deterministic.
 *
 * Internally this is a calendar queue over a node pool. Every pending
 * callback lives in a node of a chunked pool: chunks never move, and
 * freed nodes are recycled LIFO, so the next schedule() reuses a node
 * that is still hot in the host cache and the pool only grows to the
 * peak number of pending events. A power-of-two ring of one-tick
 * buckets covers the near future [now, now + ringSize); each bucket
 * is an intrusive FIFO list of nodes (a head and a tail index), so
 * the ring itself is a fixed 32 KiB no matter how bursty a tick gets.
 * An overflow min-heap of (when, seq, node) triples holds everything
 * farther out. Nearly all simulator events land a handful of ticks
 * ahead (link hops, cache latencies), so schedule() and the run loop
 * are O(1) list appends and list walks; the heap is only touched for
 * the rare long-delay event. Callbacks are SmallFunction, so captures
 * up to 48 bytes never heap-allocate; a callback is moved once, into
 * its node, and invoked in place.
 *
 * FIFO-tie invariant: a ring bucket never stores a sequence number.
 * That is sound because (a) direct appends to a bucket happen in
 * global schedule order, and (b) overflow events migrate into a
 * bucket only at the moment their tick first enters the ring window —
 * before any same-tick direct append can exist (a direct append for
 * that tick requires the window to already cover it, and every
 * advance of now() eagerly drains the whole newly-exposed window from
 * the heap first).
 */

#ifndef SPMCOH_SIM_EVENTQUEUE_HH
#define SPMCOH_SIM_EVENTQUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/Logging.hh"
#include "sim/SmallFunction.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/**
 * The global discrete event queue.
 *
 * All simulated components schedule closures on one EventQueue owned
 * by the System. Time only moves forward: scheduling in the past is a
 * panic (simulator bug).
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events still pending. */
    std::size_t pending() const { return ringCount + overflow.size(); }

    /** Total events ever executed (for stats / microbenches). */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Callback nodes held by the pool: the peak pending count rounded
     * up to whole chunks. It never shrinks.
     */
    std::size_t capacity() const { return chunks.size() * chunkNodes; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback cb)
    {
        if (when < _now)
            panic("EventQueue: scheduling in the past");
        const std::uint32_t n = allocNode();
        node(n).cb = std::move(cb);
        if (when - _now < ringSize) {
            append(when & ringMask, n);
        } else {
            overflow.push(FarEntry{when, nextSeq++, n});
        }
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb)
    {
        schedule(_now + delta, std::move(cb));
    }

    /**
     * Run events until the queue drains or @p limit ticks elapse.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(Tick limit = maxTick)
    {
        while (pending() != 0) {
            const Tick next = nextEventTick();
            if (next > limit) {
                advanceTo(limit);
                return false;
            }
            advanceTo(next);
            while (runHead(next & ringMask)) {
            }
        }
        return true;
    }

    /** Execute a single event; returns false if none pending. */
    bool
    step()
    {
        if (pending() == 0)
            return false;
        const Tick next = nextEventTick();
        advanceTo(next);
        runHead(next & ringMask);
        return true;
    }

  private:
    /** Ring span in ticks; power of two, one tick per bucket. */
    static constexpr std::size_t ringSize = 4096;
    static constexpr std::size_t ringMask = ringSize - 1;
    static constexpr std::size_t occWords = ringSize / 64;
    /** Pool chunk size in nodes; power of two. */
    static constexpr std::uint32_t chunkShift = 10;
    static constexpr std::uint32_t chunkNodes = 1u << chunkShift;
    /** Null node index (end of a list, empty bucket). */
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /**
     * One pending callback. @c next links the node into its bucket's
     * FIFO list, or into the free list while the node is unused (its
     * callback is then empty).
     */
    struct Node
    {
        Callback cb;
        std::uint32_t next = nil;
    };

    /** One tick's events, oldest at @c head. */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t node;

        bool
        operator>(const FarEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    Node &
    node(std::uint32_t n)
    {
        return chunks[n >> chunkShift][n & (chunkNodes - 1)];
    }

    /** Pop a node off the free list, adding a chunk if it is empty. */
    std::uint32_t
    allocNode()
    {
        if (freeHead == nil) {
            const auto base =
                static_cast<std::uint32_t>(chunks.size()) * chunkNodes;
            chunks.push_back(std::make_unique<Node[]>(chunkNodes));
            Node *chunk = chunks.back().get();
            for (std::uint32_t i = chunkNodes; i-- > 0;) {
                chunk[i].next = freeHead;
                freeHead = base + i;
            }
        }
        const std::uint32_t n = freeHead;
        freeHead = node(n).next;
        return n;
    }

    /** Destroy node @p n's callback and push it on the free list. */
    void
    freeNode(std::uint32_t n)
    {
        Node &nd = node(n);
        nd.cb = nullptr;
        nd.next = freeHead;
        freeHead = n;
    }

    /** Link node @p n at the tail of bucket @p b. */
    void
    append(std::size_t b, std::uint32_t n)
    {
        Bucket &bucket = ring[b];
        node(n).next = nil;
        if (bucket.head == nil) {
            bucket.head = n;
            occ[b >> 6] |= std::uint64_t{1} << (b & 63);
        } else {
            node(bucket.tail).next = n;
        }
        bucket.tail = n;
        ++ringCount;
    }

    /**
     * Advance now() to @p t and eagerly pull every overflow event
     * whose tick just entered the ring window. Eagerness is what the
     * FIFO-tie invariant rests on (see file comment): migrated events
     * must reach their bucket before any direct same-tick append.
     */
    void
    advanceTo(Tick t)
    {
        _now = t;
        while (!overflow.empty() &&
               overflow.top().when - _now < ringSize) {
            append(overflow.top().when & ringMask, overflow.top().node);
            overflow.pop();
        }
    }

    /**
     * Earliest pending tick. Ring events always precede every
     * overflow event (the heap only holds ticks beyond the window),
     * so scan the occupancy bitmap first.
     * @pre pending() != 0
     */
    Tick
    nextEventTick() const
    {
        if (ringCount == 0)
            return overflow.top().when;
        const std::size_t start = _now & ringMask;
        std::size_t w = start >> 6;
        std::uint64_t word =
            occ[w] & (~std::uint64_t{0} << (start & 63));
        for (std::size_t i = 0; i <= occWords; ++i) {
            if (word) {
                const std::size_t b =
                    (w << 6) + std::countr_zero(word);
                return _now + ((b - start) & ringMask);
            }
            w = (w + 1) & (occWords - 1);
            word = occ[w];
        }
        panic("EventQueue: occupancy bitmap out of sync");
    }

    /**
     * Run the oldest event of bucket @p b in place, then free its
     * node. The node's link is read only after the callback returns,
     * because the callback may append to its own tick (no other tick
     * can map here while this one is within the window).
     * @return whether bucket @p b still holds events
     */
    bool
    runHead(std::size_t b)
    {
        Bucket &bucket = ring[b];
        const std::uint32_t n = bucket.head;
        Node &nd = node(n);
        --ringCount;
        ++numExecuted;
        nd.cb();
        bucket.head = nd.next;
        freeNode(n);
        if (bucket.head != nil)
            return true;
        bucket.tail = nil;
        occ[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        return false;
    }

    /// Node storage; a chunk never moves once allocated.
    std::vector<std::unique_ptr<Node[]>> chunks;
    std::uint32_t freeHead = nil;
    std::array<Bucket, ringSize> ring{};
    std::array<std::uint64_t, occWords> occ{};
    std::size_t ringCount = 0;
    std::priority_queue<FarEntry, std::vector<FarEntry>,
                        std::greater<>>
        overflow;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace spmcoh

#endif // SPMCOH_SIM_EVENTQUEUE_HH
