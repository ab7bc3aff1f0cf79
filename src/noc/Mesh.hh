/**
 * @file
 * 2D mesh on-chip network with XY routing and contention-aware
 * analytic latency (Table 1: mesh, link 1 cycle, router 1 cycle).
 *
 * Each unicast packet walks its XY path once at send time, reserving
 * serialization slots on every directional link it crosses; delivery
 * is a single scheduled event. Broadcasts (used by the FilterDir) are
 * accounted packet-exactly but simulated as one aggregate event to
 * bound event count (docs/architecture.md, "Aggregated FilterDir
 * broadcast").
 */

#ifndef SPMCOH_NOC_MESH_HH
#define SPMCOH_NOC_MESH_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "noc/InterChipLink.hh"
#include "noc/Traffic.hh"
#include "sim/EventQueue.hh"
#include "sim/Logging.hh"
#include "sim/Region.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Mesh configuration. */
struct MeshParams
{
    std::uint32_t width = 8;       ///< tiles per row (one chip)
    std::uint32_t height = 8;      ///< tiles per column (one chip)
    Tick routerLatency = 1;        ///< cycles per router traversal
    Tick linkLatency = 1;          ///< cycles per link traversal
    std::uint32_t flitBytes = 16;  ///< link width
    bool modelContention = true;   ///< reserve link serialization slots
    /** Number of chips: each is an independent width x height mesh;
     *  chips are joined through inter-chip links (interChip). 1 is
     *  the classic single-chip machine and changes nothing. */
    std::uint32_t chips = 1;
    /** Inter-chip link/hub timing (used only when chips > 1). */
    InterChipParams interChip{};
};

/**
 * The on-chip mesh interconnect.
 *
 * Tiles are numbered row-major: tile id = y * width + x. Every tile
 * hosts a core + L1s + SPM + DMAC + one L2/directory slice, so CoreId
 * doubles as the tile id.
 *
 * Multi-chip fabrics (chips > 1) stack the chips in tile-id space:
 * chip c owns tiles [c * width * height, (c + 1) * width * height),
 * each chip row-major on its own width x height mesh. Because the
 * stacking is by whole rows, global coords() and the directional
 * link table stay valid unchanged — routing simply never walks a
 * mesh link across a chip boundary. Cross-chip packets instead leave
 * through the source chip's gateway tile (local tile 0), cross its
 * InterChipLink to the hub, and re-enter through the destination
 * chip's gateway (see InterChipLink.hh for the path and its pricing;
 * MemNet composes the crossing so the home agent can observe it).
 */
class Mesh
{
  public:
    Mesh(EventQueue &eq_, const MeshParams &p_)
        : eq(eq_), p(p_),
          linkNextFree(static_cast<std::size_t>(p_.width) * p_.height *
                           (p_.chips ? p_.chips : 1) * 4,
                       0),
          lastDelivery(static_cast<std::size_t>(p_.width) * p_.height *
                           (p_.chips ? p_.chips : 1) * p_.width *
                           p_.height * (p_.chips ? p_.chips : 1),
                       0),
          broadcastTallies(static_cast<std::size_t>(p_.width) *
                           p_.height * (p_.chips ? p_.chips : 1))
    {
        if (p.width == 0 || p.height == 0)
            fatal("Mesh: zero dimension");
        if (p.chips == 0)
            fatal("Mesh: zero chip count");
        if (p.chips > 1)
            for (std::uint32_t c = 0; c < p.chips; ++c)
                icLinks.push_back(std::make_unique<InterChipLink>(
                    c, p.interChip));
    }

    std::uint32_t numTiles() const
    { return p.width * p.height * p.chips; }

    // ------------------------------------------------- chip geometry

    std::uint32_t numChips() const { return p.chips; }
    std::uint32_t tilesPerChip() const { return p.width * p.height; }

    /** Chip owning a tile. */
    std::uint32_t
    chipOf(CoreId t) const
    {
        return p.chips == 1 ? 0 : t / tilesPerChip();
    }

    bool
    sameChip(CoreId a, CoreId b) const
    {
        return p.chips == 1 || chipOf(a) == chipOf(b);
    }

    /** Gateway tile of a chip (its local tile 0). */
    CoreId
    gatewayOf(std::uint32_t chip) const
    {
        return static_cast<CoreId>(chip * tilesPerChip());
    }

    /** The chip's connection to the hub (chips > 1 only). */
    InterChipLink &
    interChipLink(std::uint32_t chip)
    {
        return *icLinks.at(chip);
    }

    const InterChipLink &
    interChipLink(std::uint32_t chip) const
    {
        return *icLinks.at(chip);
    }

    /**
     * Manhattan hop count between two tiles on one chip; a crossing
     * counts both gateway legs plus one hop for the inter-chip link
     * (traffic accounting prices the crossing's flit-hops with it).
     */
    std::uint32_t
    hops(CoreId src, CoreId dst) const
    {
        if (!sameChip(src, dst))
            return hops(src, gatewayOf(chipOf(src))) + 1 +
                   hops(gatewayOf(chipOf(dst)), dst);
        const auto [sx, sy] = coords(src);
        const auto [dx, dy] = coords(dst);
        return absDiff(sx, dx) + absDiff(sy, dy);
    }

    /**
     * Send a packet now; schedules @p onArrive at the delivery tick.
     * Local (src == dst) messages still pay one router traversal.
     * @return the delivery tick.
     */
    Tick
    send(CoreId src, CoreId dst, TrafficClass cls, std::uint32_t bytes,
         EventQueue::Callback onArrive)
    {
        return sendOn(eq, src, dst, cls, bytes, std::move(onArrive));
    }

    /**
     * Region-aware send: reserve from @p q's current time and
     * schedule the delivery into @p q. The partitioned fabric uses
     * this for intra-region packets — both endpoints sit in one row
     * band, so the XY route touches only that band's links and the
     * link state stays region-confined. The monolithic send() is the
     * q == global-queue special case.
     */
    Tick
    sendOn(EventQueue &q, CoreId src, CoreId dst, TrafficClass cls,
           std::uint32_t bytes, EventQueue::Callback onArrive)
    {
        const Tick arrive = reserveFrom(q.now(), src, dst, bytes);
        account(src, dst, cls, bytes);
        if (onArrive)
            q.schedule(arrive, std::move(onArrive));
        return arrive;
    }

    /**
     * Account a packet's traffic without simulating its delivery.
     * Used for the per-destination legs of aggregated broadcasts.
     * Local (h=0) delivery crosses no link, so it contributes no
     * flit-hops — consistent with routeLatency()/reserve(), which
     * charge it one router traversal only.
     */
    void
    account(CoreId src, CoreId dst, TrafficClass cls,
            std::uint32_t bytes)
    {
        TrafficCounters &c = regional.empty()
            ? counters : regional[tlsExecRegion];
        c.add(cls, 1, bytes,
              static_cast<std::uint64_t>(flits(bytes)) *
              hops(src, dst));
    }

    /**
     * Contention-free latency of an @p h -hop unicast on a mesh
     * described by @p mp. Every hop costs router + link; the
     * destination router also processes the packet. Serialization
     * adds flits-1 cycles. Static so topology derivation can price
     * a geometry before any mesh is built.
     */
    static Tick
    contentionFreeLatency(const MeshParams &mp, std::uint32_t h,
                          std::uint32_t bytes)
    {
        return mp.routerLatency +
               h * (mp.routerLatency + mp.linkLatency) +
               (flitsFor(mp, bytes) - 1);
    }

    /**
     * Barrier release cost across a region of the mesh whose
     * diameter is @p diameter_hops: the master gathers the last
     * arrival and broadcasts the release, a control-packet round
     * trip. Shared by the topology derivation (full-mesh barriers)
     * and System::barrierFor (group-scoped barriers) so the cost
     * model lives in one place.
     */
    static Tick
    barrierReleaseLatency(const MeshParams &mp,
                          std::uint32_t diameter_hops)
    {
        return 2 * contentionFreeLatency(mp, diameter_hops,
                                         ctrlPacketBytes);
    }

    /**
     * Hub transit of one crossing, contention-free: up-link wire plus
     * serialization tail, hub service + pipeline, down-link wire plus
     * tail. Static so topology derivation can price multi-chip
     * barriers before any mesh is built.
     */
    static Tick
    interChipTransitLatency(const MeshParams &mp, std::uint32_t bytes)
    {
        const Tick occ =
            InterChipLink::serializationCycles(mp.interChip, bytes);
        return 2 * (mp.interChip.linkLatency + (occ - 1)) +
               mp.interChip.hubServiceCycles + mp.interChip.hubLatency;
    }

    /** Contention-free latency of a unicast (for planning/oracles). */
    Tick
    routeLatency(CoreId src, CoreId dst, std::uint32_t bytes) const
    {
        if (!sameChip(src, dst)) {
            const Tick leg_a = contentionFreeLatency(
                p, hops(src, gatewayOf(chipOf(src))), bytes);
            const Tick leg_b = contentionFreeLatency(
                p, hops(gatewayOf(chipOf(dst)), dst), bytes);
            return leg_a + interChipTransitLatency(p, bytes) + leg_b;
        }
        return contentionFreeLatency(p, hops(src, dst), bytes);
    }

    /**
     * Worst-case contention-free latency from @p src to any tile: the
     * farthest corner of its own chip or, on a multi-chip fabric, the
     * corner of another chip farthest from that chip's gateway. All
     * chips share one geometry, so no scan over the tiles is needed.
     */
    Tick
    maxLatencyFrom(CoreId src, std::uint32_t bytes) const
    {
        const CoreId local = src % tilesPerChip();
        const std::uint32_t x = local % p.width;
        const std::uint32_t y = local / p.width;
        const std::uint32_t corner_hops =
            std::max(x, p.width - 1 - x) + std::max(y, p.height - 1 - y);
        Tick worst = contentionFreeLatency(p, corner_hops, bytes);
        if (p.chips > 1) {
            // Leg to the local gateway (local tile 0), the hub transit,
            // then the full diameter of the destination chip.
            const Tick cross = contentionFreeLatency(p, x + y, bytes) +
                interChipTransitLatency(p, bytes) +
                contentionFreeLatency(
                    p, (p.width - 1) + (p.height - 1), bytes);
            worst = std::max(worst, cross);
        }
        return worst;
    }

    /**
     * Account one aggregated broadcast from @p src: a request to and
     * a response from every tile in [0, @p n) except @p skip, each
     * @p bytes long. Charges exactly what 2(n-1) account() calls
     * would — packets, bytes and flits x hops — in one add. The
     * round-trip hop sum over [0, n) is built on @p src's first
     * broadcast; only @p src's own broadcasts touch its entry, so
     * partitioned regions never share one.
     */
    void
    accountBroadcast(CoreId src, CoreId skip, std::uint32_t n,
                     TrafficClass cls, std::uint32_t bytes)
    {
        BroadcastTally &b = broadcastTallies[src];
        if (b.n != n) {
            b.n = n;
            b.hopSum = 0;
            for (CoreId c = 0; c < n; ++c)
                b.hopSum += hops(src, c) + hops(c, src);
        }
        std::uint64_t legs = 2 * std::uint64_t(n);
        std::uint64_t hop_sum = b.hopSum;
        if (skip < n) {
            legs -= 2;
            hop_sum -= hops(src, skip) + hops(skip, src);
        }
        TrafficCounters &c = regional.empty()
            ? counters : regional[tlsExecRegion];
        c.add(cls, legs, legs * bytes,
              static_cast<std::uint64_t>(flits(bytes)) * hop_sum);
    }

    const TrafficCounters &traffic() const { return counters; }
    void resetTraffic() { counters = TrafficCounters{}; }

    /**
     * Partitioned-mode setup: give every region (plus the merge
     * thread, which attributes as region 0) its own traffic counter
     * set. Sums are commutative, so after foldRegionalTraffic() the
     * totals are independent of worker count and interleaving.
     */
    void
    setNumRegions(std::uint32_t r)
    {
        regional.assign(r, TrafficCounters{});
    }

    /** Fold per-region counters into the main set after a run. */
    void
    foldRegionalTraffic()
    {
        for (TrafficCounters &c : regional) {
            counters.merge(c);
            c = TrafficCounters{};
        }
    }

    /**
     * Merge-time point-to-point ordering for cross-region packets:
     * bump @p t past the last delivery of the (src, dst) pair. The
     * pair state is shared with reserveFrom(), which is sound
     * because a given pair is either always intra-region (both
     * tiles in one band, touched only by that band's worker) or
     * always cross-region (touched only by the single-threaded
     * epoch merge).
     */
    Tick
    orderedDelivery(CoreId src, CoreId dst, Tick t)
    {
        Tick &last = lastDelivery[static_cast<std::size_t>(src) *
                                      numTiles() + dst];
        if (t <= last)
            t = last + 1;
        last = t;
        return t;
    }

    /**
     * Contended walk of one on-chip leg of a crossing (both tiles on
     * one chip; typically one of them is a gateway). Pays the source
     * router and the XY walk; the serialization tail and (src, dst)
     * ordering belong to the crossing's end (finishDelivery), so a
     * crossing pays the tail once, like an intra-chip packet. MemNet
     * composes leg -> link -> hub -> link -> leg for each crossing.
     */
    Tick
    reserveLeg(Tick now, CoreId src, CoreId dst, std::uint32_t bytes)
    {
        return reserveWalk(now + p.routerLatency, src, dst, bytes);
    }

    /**
     * Complete a cross-chip delivery whose head arrives at @p t: add
     * the serialization tail and apply point-to-point ordering on the
     * global (src, dst) pair.
     */
    Tick
    finishDelivery(CoreId src, CoreId dst, Tick t, std::uint32_t bytes)
    {
        t += flits(bytes) - 1;
        return orderedDelivery(src, dst, t);
    }

  private:
    static std::uint32_t
    absDiff(std::uint32_t a, std::uint32_t b)
    {
        return a > b ? a - b : b - a;
    }

    std::pair<std::uint32_t, std::uint32_t>
    coords(CoreId id) const
    {
        return {id % p.width, id / p.width};
    }

    static std::uint32_t
    flitsFor(const MeshParams &mp, std::uint32_t bytes)
    {
        const std::uint32_t f =
            static_cast<std::uint32_t>(divCeil(bytes, mp.flitBytes));
        return f ? f : 1;
    }

    std::uint32_t
    flits(std::uint32_t bytes) const
    {
        return flitsFor(p, bytes);
    }

    /** Directional link index leaving (x,y) toward direction d. */
    std::size_t
    linkIndex(std::uint32_t x, std::uint32_t y, std::uint32_t d) const
    {
        return (static_cast<std::size_t>(y) * p.width + x) * 4 + d;
    }

    /**
     * Walk the XY path from @p t reserving link slots; returns the
     * head-arrival tick (no serialization tail, no ordering).
     * Directions: 0=+x, 1=-x, 2=+y, 3=-y. Both tiles must sit on one
     * chip — the walk never crosses a chip boundary.
     */
    Tick
    reserveWalk(Tick t, CoreId src, CoreId dst, std::uint32_t bytes)
    {
        auto [x, y] = coords(src);
        const auto [dx, dy] = coords(dst);
        const std::uint32_t nf = flits(bytes);

        auto traverse = [&](std::uint32_t dir, std::uint32_t &c,
                            std::uint32_t target) {
            while (c != target) {
                const std::size_t li = linkIndex(x, y, dir);
                if (p.modelContention) {
                    Tick &free = linkNextFree[li];
                    if (free > t)
                        t = free;
                    free = t + nf;
                }
                t += p.linkLatency + p.routerLatency;
                if (dir == 0) ++c;
                else if (dir == 1) --c;
                else if (dir == 2) ++c;
                else --c;
            }
        };

        // X first, then Y (deadlock-free XY routing).
        if (dx > x) traverse(0, x, dx);
        else if (dx < x) traverse(1, x, dx);
        if (dy > y) traverse(2, y, dy);
        else if (dy < y) traverse(3, y, dy);

        return t;
    }

    /** Walk the XY path reserving link slots; returns delivery tick. */
    Tick
    reserveFrom(Tick now, CoreId src, CoreId dst, std::uint32_t bytes)
    {
        Tick t = reserveWalk(now + p.routerLatency, src, dst, bytes);
        t += flits(bytes) - 1;
        // Point-to-point ordering: packets between one (src, dst)
        // pair share one deterministic route and deliver in send
        // order, whatever their sizes. Protocol correctness (e.g.
        // a control GetX must not overtake the preceding PutM data
        // packet) depends on this, as it does on real NoCs with
        // deterministic routing and ordered virtual channels.
        return orderedDelivery(src, dst, t);
    }

    /** Round-trip hops from one tile to every tile in [0, n). */
    struct BroadcastTally
    {
        std::uint32_t n = 0;  ///< 0 = not built yet
        std::uint64_t hopSum = 0;
    };

    EventQueue &eq;
    MeshParams p;
    std::vector<Tick> linkNextFree;
    std::vector<Tick> lastDelivery;
    /** Per-source broadcast tallies (accountBroadcast). */
    std::vector<BroadcastTally> broadcastTallies;
    /** One link per chip, chip-indexed (empty when chips == 1). */
    std::vector<std::unique_ptr<InterChipLink>> icLinks;
    TrafficCounters counters;
    /** Per-region counter sets (empty = monolithic). */
    std::vector<TrafficCounters> regional;
};

} // namespace spmcoh

#endif // SPMCOH_NOC_MESH_HH
