/**
 * @file
 * Unit tests for the mesh NoC: routing distances, latency model,
 * contention serialization, traffic accounting and the aggregated
 * broadcast tally.
 */

#include <gtest/gtest.h>

#include "noc/Mesh.hh"
#include "system/Topology.hh"

namespace spmcoh
{
namespace
{

MeshParams
params8x8()
{
    return MeshParams{};
}

/** The mesh the topology layer derives for @p cores over @p chips. */
MeshParams
meshFor(std::uint32_t cores, std::uint32_t chips)
{
    MeshParams mp;
    const Topology t = Topology::forSystem(cores, chips, mp);
    mp.width = t.width;
    mp.height = t.height;
    mp.chips = t.chips;
    return mp;
}

void
expectSameTraffic(const TrafficCounters &a, const TrafficCounters &b)
{
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.flitHops, b.flitHops);
}

TEST(Mesh, HopCounts)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 7), 7u);       // same row
    EXPECT_EQ(m.hops(0, 56), 7u);      // same column
    EXPECT_EQ(m.hops(0, 63), 14u);     // corner to corner
    EXPECT_EQ(m.hops(9, 18), 2u);      // (1,1) -> (2,2)
}

TEST(Mesh, RouteLatencyScalesWithDistance)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    const Tick near = m.routeLatency(0, 1, ctrlPacketBytes);
    const Tick far = m.routeLatency(0, 63, ctrlPacketBytes);
    EXPECT_GT(far, near);
    // 14 hops x (router+link) + final router = 29 for a 1-flit pkt.
    EXPECT_EQ(far, 29u);
}

TEST(Mesh, DataPacketsSerializeMoreFlits)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    const Tick ctrl = m.routeLatency(0, 1, ctrlPacketBytes);
    const Tick data = m.routeLatency(0, 1, dataPacketBytes);
    // 72B / 16B = 5 flits -> 4 extra serialization cycles.
    EXPECT_EQ(data, ctrl + 4);
}

TEST(Mesh, DeliveryEventFires)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    bool arrived = false;
    Tick t = m.send(0, 63, TrafficClass::Read, ctrlPacketBytes,
                    [&] { arrived = true; });
    EXPECT_GT(t, 0u);
    eq.run();
    EXPECT_TRUE(arrived);
    EXPECT_EQ(eq.now(), t);
}

TEST(Mesh, ContentionDelaysBackToBackPackets)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    // Two data packets on the same link at the same time: the second
    // is pushed back by serialization.
    const Tick t1 = m.send(0, 1, TrafficClass::Read, dataPacketBytes,
                           nullptr);
    const Tick t2 = m.send(0, 1, TrafficClass::Read, dataPacketBytes,
                           nullptr);
    EXPECT_GT(t2, t1);
    eq.run();
}

TEST(Mesh, PointToPointOrderAcrossPacketSizes)
{
    EventQueue eq;
    Mesh m(eq, MeshParams{});
    // A large data packet followed by a small control packet on the
    // same (src, dst) pair: the control packet must not overtake it.
    const Tick t_data = m.send(0, 63, TrafficClass::WbRepl,
                               dataPacketBytes, nullptr);
    const Tick t_ctrl = m.send(0, 63, TrafficClass::Write,
                               ctrlPacketBytes, nullptr);
    EXPECT_GT(t_ctrl, t_data);
    eq.run();
}

TEST(Mesh, TrafficCountersPerClass)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    m.send(0, 5, TrafficClass::Read, ctrlPacketBytes, nullptr);
    m.send(0, 5, TrafficClass::Read, dataPacketBytes, nullptr);
    m.send(3, 9, TrafficClass::Dma, dataPacketBytes, nullptr);
    m.account(1, 2, TrafficClass::CohProt, ctrlPacketBytes);
    eq.run();
    const TrafficCounters &tc = m.traffic();
    EXPECT_EQ(tc.classPackets(TrafficClass::Read), 2u);
    EXPECT_EQ(tc.classPackets(TrafficClass::Dma), 1u);
    EXPECT_EQ(tc.classPackets(TrafficClass::CohProt), 1u);
    EXPECT_EQ(tc.totalPackets(), 4u);
    EXPECT_GT(tc.flitHops, 0u);
}

TEST(Mesh, AccountOnlyDoesNotSchedule)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    m.account(0, 63, TrafficClass::CohProt, ctrlPacketBytes);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(m.traffic().totalPackets(), 1u);
}

TEST(Mesh, MaxLatencyFromCornerIsWorstCase)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    EXPECT_EQ(m.maxLatencyFrom(0, ctrlPacketBytes),
              m.routeLatency(0, 63, ctrlPacketBytes));
    // From the center the worst case is nearer.
    EXPECT_LT(m.maxLatencyFrom(27, ctrlPacketBytes),
              m.maxLatencyFrom(0, ctrlPacketBytes));
}

TEST(Mesh, MaxLatencyMatchesScanOverEveryTile)
{
    for (auto [cores, chips] : {std::pair{8u, 1u}, std::pair{64u, 1u},
                                std::pair{16u, 2u}, std::pair{64u, 4u}}) {
        EventQueue eq;
        Mesh m(eq, meshFor(cores, chips));
        for (CoreId src = 0; src < m.numTiles(); ++src) {
            for (std::uint32_t bytes : {ctrlPacketBytes, dataPacketBytes}) {
                Tick worst = 0;
                for (CoreId t = 0; t < m.numTiles(); ++t)
                    worst = std::max(worst, m.routeLatency(src, t, bytes));
                EXPECT_EQ(m.maxLatencyFrom(src, bytes), worst)
                    << cores << "c/" << chips << "chip src " << src;
            }
        }
    }
}

TEST(Mesh, BroadcastTallyEqualsPerLegAccounting)
{
    for (auto [cores, chips] : {std::pair{8u, 1u}, std::pair{64u, 1u},
                                std::pair{16u, 2u}}) {
        EventQueue eq;
        Mesh legs(eq, meshFor(cores, chips));
        Mesh tally(eq, meshFor(cores, chips));
        ASSERT_EQ(legs.numTiles(), cores);
        for (CoreId tile = 0; tile < cores; ++tile) {
            for (CoreId req = 0; req < cores; ++req) {
                legs.resetTraffic();
                tally.resetTraffic();
                for (CoreId c = 0; c < cores; ++c) {
                    if (c == req)
                        continue;
                    legs.account(tile, c, TrafficClass::CohProt,
                                 ctrlPacketBytes);
                    legs.account(c, tile, TrafficClass::CohProt,
                                 ctrlPacketBytes);
                }
                tally.accountBroadcast(tile, req, cores,
                                       TrafficClass::CohProt,
                                       ctrlPacketBytes);
                SCOPED_TRACE(testing::Message()
                             << cores << "c/" << chips << "chip tile "
                             << tile << " requestor " << req);
                expectSameTraffic(tally.traffic(), legs.traffic());
                EXPECT_EQ(tally.traffic().classPackets(
                              TrafficClass::CohProt),
                          2u * (cores - 1));
            }
        }
    }
}

TEST(Mesh, CrossChipHopsIncludeTheLinkHop)
{
    const MeshParams mp = meshFor(16, 2);
    EventQueue eq;
    Mesh m(eq, mp);
    ASSERT_EQ(m.numChips(), 2u);
    const CoreId far = m.tilesPerChip() - 1;      // chip 0's far corner
    const CoreId other = m.tilesPerChip() + far;  // same spot, chip 1
    const std::uint32_t diameter = (mp.width - 1) + (mp.height - 1);
    EXPECT_EQ(m.hops(far, other), 2 * diameter + 1);
    EXPECT_EQ(m.hops(other, far), 2 * diameter + 1);

    // A broadcast that skips `other` charges exactly one 1-flit round
    // trip of that length less than one that skips nobody.
    Mesh all(eq, mp);
    all.accountBroadcast(far, invalidCore, 16, TrafficClass::CohProt,
                         ctrlPacketBytes);
    Mesh skip(eq, mp);
    skip.accountBroadcast(far, other, 16, TrafficClass::CohProt,
                          ctrlPacketBytes);
    EXPECT_EQ(all.traffic().totalPackets(), 32u);
    EXPECT_EQ(skip.traffic().totalPackets(), 30u);
    EXPECT_EQ(all.traffic().flitHops - skip.traffic().flitHops,
              2u * (2 * diameter + 1));
}

TEST(Mesh, LocalDeliveryStillCostsARouter)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    EXPECT_EQ(m.routeLatency(5, 5, ctrlPacketBytes), 1u);
}

TEST(Mesh, LocalAccountingChargesNoLinkFlits)
{
    EventQueue eq;
    Mesh m(eq, params8x8());
    // Local (h=0) delivery is router-only: a packet and its bytes
    // are counted, but no flits cross any link — consistent with
    // routeLatency/reserve, which charge no link traversal.
    m.account(5, 5, TrafficClass::Read, dataPacketBytes);
    EXPECT_EQ(m.traffic().totalPackets(), 1u);
    EXPECT_GT(m.traffic().bytes[std::size_t(TrafficClass::Read)], 0u);
    EXPECT_EQ(m.traffic().flitHops, 0u);
    m.send(5, 5, TrafficClass::Read, dataPacketBytes, nullptr);
    EXPECT_EQ(m.traffic().flitHops, 0u);
    // One hop still charges flits x 1.
    m.account(0, 1, TrafficClass::Read, dataPacketBytes);
    EXPECT_EQ(m.traffic().flitHops, 5u);  // 72B / 16B-flits = 5
    eq.run();
}

} // namespace
} // namespace spmcoh
