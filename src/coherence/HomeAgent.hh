/**
 * @file
 * Global home agent for the multi-chip fabric.
 *
 * Each chip resolves its local traffic entirely on-chip through its
 * own directory/FilterDir slices — at --chips=1 the agent does not
 * exist and nothing changes. A request whose home slice lives on
 * another chip escalates: the packet leaves through the source
 * chip's gateway, crosses its inter-chip link to the hub, and the
 * home agent services it there before forwarding it down the
 * destination chip's link. The agent is the serialization point for
 * cross-chip lines: it observes every crossing (requests, data
 * returns, forwards and invalidations alike), tracks per-chip
 * sharer/owner presence for the lines it has seen cross, and prices
 * its own pipeline occupancy like a directory slice.
 *
 * Presence tracking is protocol-aware through the same policy hooks
 * the directory uses: an owner keeps its line on a GetS under MOESI
 * (ownerKeepsDirtyOnGetS) and update-based protocols never shrink
 * the sharer set on writes (updateBased).
 *
 * service() is called only from the System's event loop, so the
 * agent's state needs no locking.
 */

#ifndef SPMCOH_COHERENCE_HOMEAGENT_HH
#define SPMCOH_COHERENCE_HOMEAGENT_HH

#include <cstdint>
#include <unordered_map>

#include "mem/Messages.hh"
#include "noc/InterChipLink.hh"
#include "sim/Stats.hh"
#include "sim/Types.hh"

namespace spmcoh
{

class CoherenceProtocol;

/** The hub-resident owner of cross-chip lines. */
class HomeAgent
{
  public:
    HomeAgent(const InterChipParams &p_, std::uint32_t chips_,
              const CoherenceProtocol &proto_);

    /**
     * Service one crossing at the hub: the packet's head reaches the
     * hub at @p t (after the up-link); returns the tick it enters
     * the down-link. @p src_chip / @p dst_chip are the crossing's
     * endpoints, @p send_tick the original send time (for the
     * transaction latency histogram).
     */
    Tick service(Tick t, const Message &msg, std::uint32_t src_chip,
                 std::uint32_t dst_chip, Tick send_tick);

    /** A pooled far-memory access mediated by the agent. */
    void
    notePool(bool is_write)
    {
        if (is_write)
            ++stPoolWrites;
        else
            ++stPoolReads;
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    /** Per-line cross-chip presence: owner + sharer chips. */
    struct Presence
    {
        std::uint32_t sharers = 0;  ///< bitmask of chips with copies
        std::int32_t owner = -1;    ///< chip holding it dirty, or -1
    };

    void track(const Message &msg, std::uint32_t src_chip,
               std::uint32_t dst_chip);

    InterChipParams p;
    std::uint32_t chips;
    const CoherenceProtocol &proto;
    Tick nextFree = 0;

    std::unordered_map<Addr, Presence> presence;
    std::size_t trackedPeak = 0;

    StatGroup stats;
    Counter &stCrossings;      ///< every packet through the hub
    Counter &stEscalations;    ///< requests escalated off-chip
    Counter &stForwards;       ///< forwards / owner data across chips
    Counter &stInvalidations;  ///< cross-chip invalidations
    Counter &stSpmCrossings;   ///< SPM-protocol packets (remote serves)
    Counter &stPoolReads;
    Counter &stPoolWrites;
    Counter &stTrackedPeak;    ///< high-water mark of tracked lines
    Histogram &txnLatency;     ///< send -> hub-exit latency
    Histogram &txnOccupancy;   ///< hub backlog at arrival
};

} // namespace spmcoh

#endif // SPMCOH_COHERENCE_HOMEAGENT_HH
