/**
 * @file
 * Home-agent service and cross-chip presence tracking.
 */

#include "coherence/HomeAgent.hh"

#include "protocols/CoherenceProtocol.hh"

namespace spmcoh
{

HomeAgent::HomeAgent(const InterChipParams &p_, std::uint32_t chips_,
                     const CoherenceProtocol &proto_)
    : p(p_), chips(chips_), proto(proto_), stats("homeagent")
{
}

Tick
HomeAgent::service(Tick t, const Message &msg, std::uint32_t src_chip,
                   std::uint32_t dst_chip, Tick send_tick)
{
    ++stCrossings;

    switch (msg.type) {
      // A core's request escalating off its chip.
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::UpdX:
      case MsgType::IfetchGet:
      case MsgType::DmaRead:
      case MsgType::DmaWrite:
        ++stEscalations;
        break;
      // Directory-driven forwards between chips.
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::FwdDmaRead:
        ++stForwards;
        break;
      case MsgType::Inv:
      case MsgType::FilterInval:
      case MsgType::FilterInvalFwd:
        ++stInvalidations;
        break;
      // The SPM protocol's remote-serve path crossing chips.
      case MsgType::FilterCheck:
      case MsgType::FilterCheckAck:
      case MsgType::FilterCheckNack:
      case MsgType::RemoteSpmData:
      case MsgType::RemoteSpmStAck:
      case MsgType::SpmDirect:
        ++stSpmCrossings;
        break;
      default:
        break;
    }

    track(msg, src_chip, dst_chip);

    // Hub pipeline occupancy, priced like a directory slice: each
    // crossing holds the pipeline for hubServiceCycles, backlog is
    // measured in waiting crossings at arrival.
    Tick start = t;
    if (nextFree > start)
        start = nextFree;
    const Tick service_cycles =
        p.hubServiceCycles ? p.hubServiceCycles : 1;
    txnOccupancy.sample(divCeil(start - t, service_cycles));
    nextFree = start + service_cycles;

    const Tick done = start + service_cycles + p.hubLatency;
    txnLatency.sample(done - send_tick);
    return done;
}

void
HomeAgent::track(const Message &msg, std::uint32_t src_chip,
                 std::uint32_t dst_chip)
{
    const std::uint32_t bit = 1u << dst_chip;
    const Addr line = msg.addr >> lineShift;

    switch (msg.type) {
      // Data entering dst_chip: shared copies join the sharer set;
      // exclusive/modified data moves ownership there.
      case MsgType::DataS:
      case MsgType::UpdData: {
        Presence &pr = presence[line];
        pr.sharers |= bit;
        break;
      }
      case MsgType::DataE:
      case MsgType::DataM: {
        Presence &pr = presence[line];
        pr.sharers = bit;
        pr.owner = static_cast<std::int32_t>(dst_chip);
        break;
      }
      // Update-based write propagation keeps every sharer live.
      case MsgType::Update: {
        Presence &pr = presence[line];
        pr.sharers |= bit;
        break;
      }
      // Invalidation entering dst_chip removes its copies (unless
      // the protocol updates instead of invalidating).
      case MsgType::Inv:
      case MsgType::FilterInval:
      case MsgType::FilterInvalFwd: {
        if (proto.updateBased())
            break;
        auto it = presence.find(line);
        if (it == presence.end())
            break;
        it->second.sharers &= ~bit;
        if (it->second.owner == static_cast<std::int32_t>(dst_chip))
            it->second.owner = -1;
        if (it->second.sharers == 0 && it->second.owner < 0)
            presence.erase(it);
        return;
      }
      // A writeback headed to dst_chip's directory gives the line
      // up at its source chip.
      case MsgType::PutM:
      case MsgType::PutE:
      case MsgType::PutS: {
        auto it = presence.find(line);
        if (it == presence.end())
            return;
        it->second.sharers &= ~(1u << src_chip);
        if (it->second.owner == static_cast<std::int32_t>(src_chip))
            it->second.owner = -1;
        if (it->second.sharers == 0 && it->second.owner < 0)
            presence.erase(it);
        return;
      }
      default:
        return;
    }

    if (presence.size() > trackedPeak) {
        stTrackedPeak += presence.size() - trackedPeak;
        trackedPeak = presence.size();
    }
}

} // namespace spmcoh
