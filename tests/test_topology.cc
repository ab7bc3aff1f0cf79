/**
 * @file
 * Tests for the mesh topology layer: exact geometry for the
 * supported core counts (tile count always equals core count),
 * corner/edge memory controller placement, rejection of counts no
 * mesh can tile, geometry-derived barrier latency, the System
 * constructor guards, the experiment override/cores mismatch error,
 * and byte-identical JSON export for a 128-core sweep at any worker
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "driver/Driver.hh"
#include "system/Topology.hh"

namespace spmcoh
{
namespace
{

bool
onPerimeter(CoreId t, std::uint32_t w, std::uint32_t h)
{
    const std::uint32_t x = t % w, y = t / w;
    return x == 0 || x == w - 1 || y == 0 || y == h - 1;
}

TEST(Topology, Table1MachineIsEightByEightWithCornerMcs)
{
    const Topology t = Topology::forCores(64);
    EXPECT_EQ(t.width, 8u);
    EXPECT_EQ(t.height, 8u);
    EXPECT_EQ(t.mcTiles, (std::vector<CoreId>{0, 7, 56, 63}));
}

TEST(Topology, LargeMeshesAreMostSquareWithScaledMcs)
{
    const Topology t128 = Topology::forCores(128);
    EXPECT_EQ(t128.width, 16u);
    EXPECT_EQ(t128.height, 8u);
    EXPECT_EQ(t128.mcTiles, (std::vector<CoreId>{0, 15, 112, 127}));

    const Topology t256 = Topology::forCores(256);
    EXPECT_EQ(t256.width, 16u);
    EXPECT_EQ(t256.height, 16u);
    EXPECT_EQ(t256.mcTiles.size(), 8u);

    const Topology t1024 = Topology::forCores(1024);
    EXPECT_EQ(t1024.width, 32u);
    EXPECT_EQ(t1024.height, 32u);
    EXPECT_EQ(t1024.mcTiles.size(), 16u);
}

TEST(Topology, McTilesSitOnCornersAndEdges)
{
    for (std::uint32_t cores : {16u, 64u, 128u, 256u, 512u, 1024u}) {
        const Topology t = Topology::forCores(cores);
        // The four true corners are always populated once the
        // count reaches four.
        const std::vector<CoreId> corners = {
            0, t.width - 1, (t.height - 1) * t.width,
            t.width * t.height - 1};
        if (t.mcTiles.size() >= 4) {
            for (CoreId c : corners) {
                EXPECT_TRUE(std::count(t.mcTiles.begin(),
                                       t.mcTiles.end(), c))
                    << cores << " cores, corner " << c;
            }
        }
        for (CoreId m : t.mcTiles) {
            EXPECT_LT(m, t.tiles()) << cores << " cores";
            EXPECT_TRUE(onPerimeter(m, t.width, t.height))
                << cores << " cores, tile " << m;
        }
        // No duplicate placements.
        EXPECT_TRUE(std::adjacent_find(t.mcTiles.begin(),
                                       t.mcTiles.end()) ==
                    t.mcTiles.end());
    }
}

TEST(Topology, TileCountAlwaysEqualsCoreCount)
{
    for (std::uint32_t cores = 1; cores <= 1024; ++cores) {
        if (Topology::checkCores(cores))
            continue;
        const Topology t = Topology::forCores(cores);
        EXPECT_EQ(t.tiles(), cores);
        EXPECT_GE(t.width, t.height);
        EXPECT_LE(t.width, Topology::maxAspect * t.height);
    }
}

TEST(Topology, RejectsNonTileableCounts)
{
    EXPECT_TRUE(Topology::checkCores(0).has_value());
    for (std::uint32_t prime : {5u, 7u, 13u, 251u, 1021u})
        EXPECT_TRUE(Topology::checkCores(prime).has_value())
            << prime;
    EXPECT_TRUE(Topology::checkCores(4097).has_value());
    EXPECT_THROW(Topology::forCores(7), FatalError);
    // The error names the nearest supported counts.
    const auto err = Topology::checkCores(7);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("6"), std::string::npos);
    EXPECT_NE(err->find("8"), std::string::npos);
}

TEST(Topology, BarrierLatencyMatchesMeshWorstCaseRoundTrip)
{
    for (std::uint32_t cores : {4u, 64u, 1024u}) {
        const SystemParams p =
            SystemParams::forMode(SystemMode::HybridProto, cores);
        EventQueue eq;
        Mesh mesh(eq, p.mesh);
        // Release round trip: twice the worst-case contention-free
        // control-packet latency from a corner tile.
        EXPECT_EQ(p.barrierLatency,
                  2 * mesh.maxLatencyFrom(0, ctrlPacketBytes))
            << cores << " cores";
    }
}

TEST(Topology, InterleaveSliceMatchesModulo)
{
    for (std::uint32_t slices : {1u, 3u, 8u, 64u, 128u, 1024u})
        for (std::uint64_t key = 0; key < 4096; key += 37)
            EXPECT_EQ(interleaveSlice(key, slices), key % slices);
}

TEST(Topology, ForModeNeverOverbuildsTiles)
{
    for (std::uint32_t cores : {4u, 8u, 64u, 128u, 256u, 1024u}) {
        const SystemParams p =
            SystemParams::forMode(SystemMode::HybridProto, cores);
        EXPECT_EQ(p.mesh.width * p.mesh.height, cores);
        EXPECT_EQ(p.numCores, cores);
    }
}

// ------------------------------------------------- System guards

TEST(SystemGuards, FatalWhenMeshSmallerThanCores)
{
    SystemParams p = SystemParams::forMode(SystemMode::HybridProto, 4);
    p.mesh.width = 1;
    p.mesh.height = 2;
    EXPECT_THROW(System s(p), FatalError);
}

TEST(SystemGuards, FatalWhenMcTileOutsideMesh)
{
    SystemParams p = SystemParams::forMode(SystemMode::HybridProto, 4);
    p.mcTiles = {0, 4};  // a 2x2 mesh has tiles 0..3
    EXPECT_THROW(System s(p), FatalError);
    p.mcTiles.clear();
    EXPECT_THROW(System s(p), FatalError);
}

// -------------------------------------------- experiment wiring

TEST(ExperimentTopology, ResolvedParamsDeriveTopologyPerCount)
{
    const SystemParams p = ExperimentBuilder()
                               .workload("CG")
                               .cores(128)
                               .spec()
                               .resolvedParams();
    EXPECT_EQ(p.mesh.width, 16u);
    EXPECT_EQ(p.mesh.height, 8u);
    EXPECT_EQ(p.mcTiles.size(), 4u);
    // Every memory controller is a real mesh tile (the old
    // auto-sizing placed one at cores-1, which is not a corner of
    // the over-built 12x11 mesh it produced).
    for (CoreId t : p.mcTiles)
        EXPECT_LT(t, p.mesh.width * p.mesh.height);
}

TEST(ExperimentTopology, UntileableCoreCountIsACollectedError)
{
    try {
        ExperimentBuilder().workload("CG").cores(7).spec();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot tile"),
                  std::string::npos);
    }
}

// ------------------------------- 128-core export determinism

std::string
runSweepJson(std::uint32_t jobs)
{
    SweepSpec sweep;
    sweep.workloads = {"CG"};
    sweep.modes = {SystemMode::CacheOnly, SystemMode::HybridProto};
    sweep.coreCounts = {128};
    sweep.scales = {0.1};
    SweepRunner runner(WorkloadRegistry::global(), jobs);
    std::ostringstream os;
    const auto sink = makeResultSink(ResultFormat::Json, os, false);
    runner.run(sweep, sink.get(), "128-core determinism");
    return os.str();
}

TEST(ExperimentTopology, LargeMeshJsonByteIdenticalAcrossWorkers)
{
    const std::string serial = runSweepJson(1);
    const std::string threaded = runSweepJson(4);
    EXPECT_EQ(serial, threaded);
    EXPECT_NE(serial.find("\"cores\":128"), std::string::npos);
    EXPECT_NE(serial.find("\"meshWidth\":16"), std::string::npos);
}

} // namespace
} // namespace spmcoh
