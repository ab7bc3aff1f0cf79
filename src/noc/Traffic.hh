/**
 * @file
 * On-chip network traffic classes.
 *
 * These are exactly the categories Figure 10 of the paper reports:
 * instruction fetches, data cache reads, data cache writes, write-
 * backs/replacements/invalidations, DMA transfers, and the traffic
 * introduced by the proposed SPM coherence protocol.
 */

#ifndef SPMCOH_NOC_TRAFFIC_HH
#define SPMCOH_NOC_TRAFFIC_HH

#include <array>
#include <cstdint>
#include <string>

namespace spmcoh
{

/** NoC packet category (Fig. 10 grouping). */
enum class TrafficClass : std::uint8_t
{
    Ifetch,     ///< instruction fetch requests + data + acks
    Read,       ///< data cache read requests, prefetches, data, acks
    Write,      ///< data cache write requests, data, acks
    WbRepl,     ///< write-backs, replacements, invalidations, acks
    Dma,        ///< DMA requests, data, acks
    CohProt,    ///< SPM coherence protocol traffic (Sec. 3)
    NumClasses,
};

constexpr std::size_t numTrafficClasses =
    static_cast<std::size_t>(TrafficClass::NumClasses);

/** Human-readable name, matching the paper's legend. */
inline const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::Ifetch:  return "Ifetch";
      case TrafficClass::Read:    return "Read";
      case TrafficClass::Write:   return "Write";
      case TrafficClass::WbRepl:  return "WB-Repl";
      case TrafficClass::Dma:     return "DMA";
      case TrafficClass::CohProt: return "CohProt";
      default:                    return "?";
    }
}

/** Size in bytes of a control packet (request/ack, header only). */
constexpr std::uint32_t ctrlPacketBytes = 8;

/** Size in bytes of a data packet (64B cache line + 8B header). */
constexpr std::uint32_t dataPacketBytes = 72;

/** Per-class packet and byte counters. */
struct TrafficCounters
{
    std::array<std::uint64_t, numTrafficClasses> packets{};
    std::array<std::uint64_t, numTrafficClasses> bytes{};
    std::uint64_t flitHops = 0; ///< flits x hops, for NoC energy

    void
    add(TrafficClass c, std::uint64_t pkts, std::uint64_t byts,
        std::uint64_t flit_hops)
    {
        packets[static_cast<std::size_t>(c)] += pkts;
        bytes[static_cast<std::size_t>(c)] += byts;
        flitHops += flit_hops;
    }

    std::uint64_t
    totalPackets() const
    {
        std::uint64_t t = 0;
        for (auto p : packets)
            t += p;
        return t;
    }

    std::uint64_t
    classPackets(TrafficClass c) const
    {
        return packets[static_cast<std::size_t>(c)];
    }
};

} // namespace spmcoh

#endif // SPMCOH_NOC_TRAFFIC_HH
