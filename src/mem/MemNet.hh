/**
 * @file
 * Message fabric gluing all memory-system controllers to the mesh.
 *
 * Controllers register a handler per (endpoint kind, id); senders name
 * the destination endpoint and the fabric turns the message into one
 * NoC packet (control or data sized) delivered via the event queue.
 * Tile placement: core i's L1/DMAC/Coh structures and the i-th L2
 * slice, directory slice and FilterDir slice all live on tile i.
 */

#ifndef SPMCOH_MEM_MEMNET_HH
#define SPMCOH_MEM_MEMNET_HH

#include <array>
#include <functional>
#include <vector>

#include "coherence/HomeAgent.hh"
#include "mem/MessagePool.hh"
#include "mem/Messages.hh"
#include "noc/Mesh.hh"
#include "sim/Logging.hh"

namespace spmcoh
{

/** Routes protocol messages between controllers over the mesh. */
class MemNet
{
  public:
    using Handler = std::function<void(const Message &)>;

    MemNet(EventQueue &eq_, Mesh &mesh_, std::uint32_t num_cores,
           std::vector<CoreId> mem_ctrl_tiles)
        : eq(eq_), mesh(mesh_), numCores(num_cores),
          mcTiles(std::move(mem_ctrl_tiles))
    {
        for (auto &v : handlers)
            v.resize(numCores);
        if (mcTiles.empty())
            fatal("MemNet: need at least one memory controller tile");
        mcHandlers.resize(mcTiles.size());
    }

    /** Tile that is home for a given line/base address. */
    CoreId
    homeSlice(Addr line_addr) const
    {
        return interleaveSlice(line_addr >> lineShift, numCores);
    }

    /**
     * Memory controller index nearest to a tile (static mapping).
     * Controllers on the tile's own chip always win: every chip
     * keeps a local controller population, and a gateway-adjacent
     * tile must not adopt a remote chip's controller just because
     * the hub is one hop away.
     */
    std::uint32_t
    nearestMemCtrl(CoreId tile) const
    {
        const auto dist = [this, tile](CoreId mc) {
            return mesh.hops(tile, mc) +
                   (mesh.sameChip(tile, mc) ? 0u : crossChipPenalty);
        };
        std::uint32_t best = 0;
        std::uint32_t best_h = dist(mcTiles[0]);
        for (std::uint32_t i = 1; i < mcTiles.size(); ++i) {
            const std::uint32_t h = dist(mcTiles[i]);
            if (h < best_h) {
                best_h = h;
                best = i;
            }
        }
        return best;
    }

    /** The hub's home agent (multi-chip fabrics only). */
    void setHomeAgent(HomeAgent *a) { agent = a; }
    HomeAgent *homeAgent() { return agent; }

    CoreId mcTile(std::uint32_t mc) const { return mcTiles[mc]; }
    std::uint32_t numMemCtrls() const
    { return static_cast<std::uint32_t>(mcTiles.size()); }

    /** Register the handler for an endpoint. */
    void
    setHandler(Endpoint ep, std::uint32_t id, Handler h)
    {
        if (ep == Endpoint::MemCtrl)
            mcHandlers.at(id) = std::move(h);
        else
            handlers[epIndex(ep)].at(id) = std::move(h);
    }

    /**
     * Send @p msg from tile @p srcTile to endpoint (@p ep, @p id).
     * The packet size is derived from hasData; @p cls fixes the
     * Fig. 10 traffic category.
     * @return delivery tick.
     */
    Tick
    send(CoreId src_tile, Endpoint ep, std::uint32_t id, Message msg,
         TrafficClass cls)
    {
        msg.src = src_tile;
        const CoreId dst_tile =
            ep == Endpoint::MemCtrl ? mcTiles.at(id)
                                    : static_cast<CoreId>(id);
        const std::uint32_t bytes =
            msg.hasData ? dataPacketBytes : ctrlPacketBytes;
        Handler &h = ep == Endpoint::MemCtrl
            ? mcHandlers.at(id) : handlers[epIndex(ep)].at(id);
        if (!h)
            panic("MemNet: no handler registered for endpoint");
        Handler *hp = &h;
        // Park the message in a pooled slot so the delivery closure
        // stays pointer-sized (inline in SmallFunction); the handler
        // address is stable because handler vectors never resize
        // after construction.
        Message *pm = pool.acquire(msg);
        if (!mesh.sameChip(src_tile, dst_tile))
            return sendInterChip(src_tile, dst_tile, cls, bytes, pm, hp);
        return mesh.send(src_tile, dst_tile, cls, bytes, [this, hp, pm] {
            (*hp)(*pm);
            pool.release(pm);
        });
    }

    /**
     * Account traffic for one packet without scheduling a delivery
     * event (the ideal-coherence remote access, which is timed
     * analytically). Aggregated FilterDir broadcasts charge all their
     * legs at once through Mesh::accountBroadcast instead
     * (docs/architecture.md, "Aggregated FilterDir broadcast").
     */
    void
    accountOnly(CoreId src_tile, CoreId dst_tile, TrafficClass cls,
                bool has_data)
    {
        mesh.account(src_tile, dst_tile, cls,
                     has_data ? dataPacketBytes : ctrlPacketBytes);
    }

    Mesh &noc() { return mesh; }

    /** The event queue every component schedules on. */
    EventQueue &events() { return eq; }

    std::uint32_t cores() const { return numCores; }

    /** Pool of in-flight Messages parked behind pointer-sized
     *  delivery closures. */
    MessagePool &msgPool() { return pool; }

  private:
    /**
     * Cross-chip delivery: contended on-chip legs to and from the
     * gateways around the shared link/hub reservations.
     */
    Tick
    sendInterChip(CoreId src, CoreId dst, TrafficClass cls,
                  std::uint32_t bytes, Message *pm, Handler *hp)
    {
        const std::uint32_t sc = mesh.chipOf(src);
        const std::uint32_t dc = mesh.chipOf(dst);
        const Tick sent = eq.now();
        Tick t = mesh.reserveLeg(sent, src, mesh.gatewayOf(sc), bytes);
        t = crossChipTransit(t, *pm, sc, dc, sent, bytes);
        t = mesh.reserveLeg(t, mesh.gatewayOf(dc), dst, bytes);
        t = mesh.finishDelivery(src, dst, t, bytes);
        mesh.account(src, dst, cls, bytes);
        eq.schedule(t, [this, hp, pm] {
            (*hp)(*pm);
            pool.release(pm);
        });
        return t;
    }

    /** Up-link -> home agent -> down-link, with occupancy. */
    Tick
    crossChipTransit(Tick t, const Message &msg, std::uint32_t sc,
                     std::uint32_t dc, Tick send_tick,
                     std::uint32_t bytes)
    {
        t = mesh.interChipLink(sc).reserveUp(t, bytes);
        if (agent)
            t = agent->service(t, msg, sc, dc, send_tick);
        return mesh.interChipLink(dc).reserveDown(t, bytes);
    }

    static std::size_t
    epIndex(Endpoint ep)
    {
        switch (ep) {
          case Endpoint::L1D:    return 0;
          case Endpoint::L1I:    return 1;
          case Endpoint::Dir:    return 2;
          case Endpoint::Dmac:   return 3;
          case Endpoint::Coh:    return 4;
          case Endpoint::CohDir: return 5;
          default: panic("MemNet: bad endpoint");
        }
    }

    /** nearestMemCtrl bias keeping controllers chip-local; larger
     *  than any possible hop count. */
    static constexpr std::uint32_t crossChipPenalty = 1u << 20;

    EventQueue &eq;
    Mesh &mesh;
    std::uint32_t numCores;
    std::vector<CoreId> mcTiles;
    HomeAgent *agent = nullptr;
    std::array<std::vector<Handler>, 6> handlers;
    std::vector<Handler> mcHandlers;
    MessagePool pool;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MEMNET_HH
