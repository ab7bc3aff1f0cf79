/**
 * @file
 * Inter-chip link model for the multi-chip fabric.
 *
 * Chips are independent meshes joined through a central hub (where
 * the global home agent lives); each chip owns one full-duplex link
 * to the hub with latency and serialization bandwidth distinct from
 * the on-chip mesh links (Table 1 prices an on-chip hop at 1 cycle;
 * an off-chip SerDes crossing is an order of magnitude slower and
 * far narrower). A packet crossing chips pays:
 *
 *   on-chip leg to the gateway tile
 *   -> source chip's up-link   (occupancy + linkLatency)
 *   -> hub / home agent        (service occupancy + hubLatency)
 *   -> destination chip's down-link
 *   -> on-chip leg from the gateway tile
 *
 * Both link directions keep a next-free serialization slot, exactly
 * like the mesh's per-link reservation, so bursty cross-chip phases
 * queue realistically. Every reservation is made from the System's
 * event loop, so the state needs no locking and stays deterministic.
 */

#ifndef SPMCOH_NOC_INTERCHIPLINK_HH
#define SPMCOH_NOC_INTERCHIPLINK_HH

#include <cstdint>
#include <string>

#include "sim/Stats.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Inter-chip fabric timing parameters. */
struct InterChipParams
{
    Tick linkLatency = 24;            ///< chip <-> hub, one direction
    std::uint32_t bytesPerCycle = 16; ///< link serialization width
    Tick hubLatency = 8;              ///< home-agent pipeline latency
    Tick hubServiceCycles = 2;        ///< hub occupancy per crossing
};

/**
 * One chip's full-duplex connection to the hub. "Up" carries packets
 * from the chip toward the hub, "down" from the hub into the chip.
 */
class InterChipLink
{
  public:
    InterChipLink(std::uint32_t chip, const InterChipParams &p_)
        : p(p_), stats("iclink" + std::to_string(chip)),
          stUpPackets(stats.counter("upPackets")),
          stUpBytes(stats.counter("upBytes")),
          stDownPackets(stats.counter("downPackets")),
          stDownBytes(stats.counter("downBytes")),
          queueDelay(stats.histogram(
              "queueDelay", {1, 2, 4, 8, 16, 32, 64, 128, 256}))
    {}

    /** Chip -> hub; returns the tick the packet reaches the hub. */
    Tick
    reserveUp(Tick t, std::uint32_t bytes)
    {
        ++stUpPackets;
        stUpBytes += bytes;
        return reserve(t, bytes, upNextFree);
    }

    /** Hub -> chip; returns the tick the packet enters the mesh. */
    Tick
    reserveDown(Tick t, std::uint32_t bytes)
    {
        ++stDownPackets;
        stDownBytes += bytes;
        return reserve(t, bytes, downNextFree);
    }

    /** Serialization occupancy of one packet on a link direction. */
    static Tick
    serializationCycles(const InterChipParams &p_, std::uint32_t bytes)
    {
        const std::uint32_t w = p_.bytesPerCycle ? p_.bytesPerCycle : 1;
        const Tick c = static_cast<Tick>(divCeil(bytes, w));
        return c ? c : 1;
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    Tick
    reserve(Tick t, std::uint32_t bytes, Tick &next_free)
    {
        const Tick occ = serializationCycles(p, bytes);
        Tick start = t;
        if (next_free > start)
            start = next_free;
        next_free = start + occ;
        queueDelay.sample(start - t);
        // The head flit arrives after the wire latency; the tail
        // needs the remaining serialization cycles.
        return start + p.linkLatency + (occ - 1);
    }

    InterChipParams p;
    Tick upNextFree = 0;
    Tick downNextFree = 0;
    StatGroup stats;
    Counter &stUpPackets;
    Counter &stUpBytes;
    Counter &stDownPackets;
    Counter &stDownBytes;
    Histogram &queueDelay;
};

} // namespace spmcoh

#endif // SPMCOH_NOC_INTERCHIPLINK_HH
