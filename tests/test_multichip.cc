/**
 * @file
 * Tests of the multi-chip fabric: topology derivation and rejection
 * rules, mesh chip geometry, single-chip byte-identity against every
 * checked-in golden, cross-chip traffic through the home agent and
 * inter-chip links, the pooled far-memory tier, and determinism of
 * multi-chip sweeps across executor worker counts.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "system/Topology.hh"

namespace spmcoh
{
namespace
{

// ------------------------------------------------------- topology

TEST(MultiChipTopology, ForSystemGeometry)
{
    // 32 cores over 2 chips: each chip is the most-square mesh of
    // 16 tiles (4x4), stacked in tile-id space.
    const Topology t = Topology::forSystem(32, 2);
    EXPECT_EQ(t.width, 4u);
    EXPECT_EQ(t.height, 4u);
    EXPECT_EQ(t.chips, 2u);
    EXPECT_EQ(t.tiles(), 32u);
    // Every chip keeps its local corner controllers: chip 1's are
    // chip 0's shifted by one chip's worth of tiles.
    const Topology one = Topology::forCores(16);
    ASSERT_EQ(t.mcTiles.size(), 2 * one.mcTiles.size());
    for (std::size_t i = 0; i < one.mcTiles.size(); ++i) {
        EXPECT_EQ(t.mcTiles[i], one.mcTiles[i]);
        EXPECT_EQ(t.mcTiles[one.mcTiles.size() + i],
                  one.mcTiles[i] + 16);
    }
    // Spanning chips costs a hub round trip on top of the chip-local
    // release.
    EXPECT_GT(t.barrierLatency, one.barrierLatency);
}

TEST(MultiChipTopology, OneChipIsExactlyForCores)
{
    for (std::uint32_t cores : {8u, 64u, 256u}) {
        const Topology a = Topology::forCores(cores);
        const Topology b = Topology::forSystem(cores, 1);
        EXPECT_EQ(a.width, b.width);
        EXPECT_EQ(a.height, b.height);
        EXPECT_EQ(a.chips, b.chips);
        EXPECT_EQ(a.mcTiles, b.mcTiles);
        EXPECT_EQ(a.barrierLatency, b.barrierLatency);
    }
}

TEST(MultiChipTopology, CheckSystemRejections)
{
    EXPECT_FALSE(Topology::checkSystem(64, 1));
    EXPECT_FALSE(Topology::checkSystem(64, 4));
    // Zero chips, beyond the model limit, uneven distribution, and
    // per-chip counts that cannot tile a mesh are all rejected.
    EXPECT_TRUE(Topology::checkSystem(64, 0));
    EXPECT_TRUE(Topology::checkSystem(64, Topology::maxChips + 1));
    EXPECT_TRUE(Topology::checkSystem(10, 4));
    const auto per_chip = Topology::checkSystem(14, 2);
    ASSERT_TRUE(per_chip);
    EXPECT_NE(per_chip->find("per-chip core count 7"),
              std::string::npos);
    // The builder surfaces the same problems.
    EXPECT_THROW(
        ExperimentBuilder().workload("CG").cores(10).chips(4).spec(),
        FatalError);
    // The far tier needs a fabric to pool behind.
    EXPECT_THROW(
        ExperimentBuilder().workload("CG").cores(8).farMem(200).spec(),
        FatalError);
}

// ----------------------------------------------------- mesh fabric

TEST(MultiChipMesh, ChipGeometryAndGateways)
{
    EventQueue eq;
    MeshParams mp;
    mp.width = 4;
    mp.height = 4;
    mp.chips = 2;
    Mesh m(eq, mp);
    EXPECT_EQ(m.numTiles(), 32u);
    EXPECT_EQ(m.chipOf(0), 0u);
    EXPECT_EQ(m.chipOf(15), 0u);
    EXPECT_EQ(m.chipOf(16), 1u);
    EXPECT_TRUE(m.sameChip(3, 12));
    EXPECT_FALSE(m.sameChip(3, 20));
    EXPECT_EQ(m.gatewayOf(0), 0u);
    EXPECT_EQ(m.gatewayOf(1), 16u);
    // A cross-chip hop count composes gateway legs plus one fabric
    // hop; the analytic latency composes the full hub transit.
    EXPECT_EQ(m.hops(5, 22),
              m.hops(5, 0) + 1 + m.hops(16, 22));
    EXPECT_GE(m.routeLatency(5, 22, ctrlPacketBytes),
              m.routeLatency(5, 0, ctrlPacketBytes) +
                  Mesh::interChipTransitLatency(mp, ctrlPacketBytes));
}

TEST(MultiChipMesh, LinkReservationQueues)
{
    InterChipParams p;
    InterChipLink link(0, p);
    // Two back-to-back packets on the up direction: the second waits
    // out the first's serialization occupancy.
    const Tick occ = InterChipLink::serializationCycles(p, 64);
    const Tick a = link.reserveUp(100, 64);
    const Tick b = link.reserveUp(100, 64);
    EXPECT_EQ(a, 100 + p.linkLatency + occ - 1);
    EXPECT_EQ(b, a + occ);
    // The down direction is independent.
    EXPECT_EQ(link.reserveDown(100, 64), a);
}

// --------------------------------- single-chip golden byte-identity

/**
 * Replaying each golden's exact CLI invocation with the multi-chip
 * machinery built in must reproduce the golden byte for byte: at
 * --chips=1 the fabric does not exist and nothing may change.
 */
TEST(MultiChipGoldens, SingleChipIsByteIdentical)
{
    const struct
    {
        const char *file;
        std::vector<std::string> args;
    } goldens[] = {
        {"cg8_smoke.json",
         {"--workload=CG", "--cores=8"}},
        {"pipeline8_smoke.json",
         {"--workload=pipeline", "--cores=8"}},
        {"stencil8_smoke.json",
         {"--workload=stencil", "--cores=8", "--wparam=grids=7"}},
        {"gather8_smoke.json",
         {"--workload=gather", "--cores=8"}},
        {"contend8_smoke.json",
         {"--workload=contend", "--cores=8"}},
        {"cg8_mesi_smoke.json",
         {"--workload=CG", "--cores=8", "--protocol=mesi"}},
    };
    for (const auto &g : goldens) {
        std::ifstream golden(std::string("../tests/golden/") + g.file,
                             std::ios::binary);
        if (!golden)
            golden.open(std::string("tests/golden/") + g.file,
                        std::ios::binary);
        if (!golden)
            GTEST_SKIP() << "golden files not reachable from cwd";
        std::ostringstream want;
        want << golden.rdbuf();

        std::vector<std::string> args = g.args;
        args.push_back("--format=json");
        args.push_back("--no-stats");
        const CliOptions opt = parseCli(args);
        std::ostringstream got;
        SweepRunner runner(WorkloadRegistry::global());
        const auto sink = makeResultSink(opt.format, got,
                                         opt.withStats);
        runner.run(opt.sweep, sink.get(), opt.effectiveTitle());
        EXPECT_EQ(got.str(), want.str()) << g.file;
    }
}

// ------------------------------------------------ cross-chip runs

std::uint64_t
counterOf(const ExperimentResult &r, const std::string &group,
          const std::string &key)
{
    const auto g = r.stats.find(group);
    if (g == r.stats.end())
        return 0;
    const auto c = g->second.counters.find(key);
    return c == g->second.counters.end() ? 0 : c->second;
}

TEST(MultiChipRun, PipelineCrossesThroughHomeAgent)
{
    // xpipeline's half split lands on the chip boundary of a 2-chip
    // 16-core run: every handoff is a remote-SPM serve escalated
    // through the home agent, so the links and the agent must both
    // see traffic, and the run must still finish with the same
    // instruction count as its single-chip twin.
    const ExperimentResult one = ExperimentBuilder()
                                     .workload("xpipeline")
                                     .cores(16)
                                     .run();
    const ExperimentResult two = ExperimentBuilder()
                                     .workload("xpipeline")
                                     .cores(16)
                                     .chips(2)
                                     .run();
    EXPECT_NE(two.spec.label().find("/16c/2chip/"),
              std::string::npos);
    EXPECT_EQ(one.results.counters.instructions,
              two.results.counters.instructions);
    EXPECT_GT(two.results.remoteSpmServed, 0u);

    // Single-chip runs carry no fabric stats at all.
    EXPECT_EQ(one.stats.count("homeagent"), 0u);
    EXPECT_EQ(one.stats.count("iclink"), 0u);

    const std::uint64_t crossings =
        counterOf(two, "homeagent", "crossings");
    EXPECT_GT(crossings, 0u);
    EXPECT_GT(counterOf(two, "homeagent", "spmCrossings"), 0u);
    EXPECT_GT(counterOf(two, "homeagent", "trackedLinesPeak"), 0u);
    const std::uint64_t up = counterOf(two, "iclink", "upPackets");
    const std::uint64_t down =
        counterOf(two, "iclink", "downPackets");
    EXPECT_GT(up, 0u);
    // Every crossing goes up one link, through the hub, and down
    // another: the three tallies must agree.
    EXPECT_EQ(up, crossings);
    EXPECT_EQ(down, crossings);
    // Crossing the fabric is never free.
    EXPECT_GT(two.results.cycles, one.results.cycles);
}

TEST(MultiChipRun, FarMemoryPoolsBehindTheHub)
{
    const ExperimentResult r = ExperimentBuilder()
                                   .workload("xpipeline")
                                   .cores(16)
                                   .chips(2)
                                   .farMem(200, 8)
                                   .run();
    EXPECT_NE(r.spec.label().find("/fm200b8"), std::string::npos);
    EXPECT_EQ(r.params.farMemLatency, Tick(200));
    const std::uint64_t reads = counterOf(r, "farmem", "reads");
    const std::uint64_t writes = counterOf(r, "farmem", "writes");
    EXPECT_GT(reads + writes, 0u);
    // Every pooled access is mediated by the home agent.
    EXPECT_EQ(counterOf(r, "homeagent", "poolReads"), reads);
    EXPECT_EQ(counterOf(r, "homeagent", "poolWrites"), writes);
    // The far tier only slows things down.
    const ExperimentResult near = ExperimentBuilder()
                                      .workload("xpipeline")
                                      .cores(16)
                                      .chips(2)
                                      .run();
    EXPECT_GT(r.results.cycles, near.results.cycles);
}

// ---------------------------------------------------- determinism

TEST(MultiChipDeterminism, JsonIdenticalAcrossJobsAndRepeats)
{
    // A sweep with a {1, 2}-chip axis must serialize byte-identically
    // whether the points run serially or on 4 workers.
    auto render = [](Executor *ex) {
        SweepSpec sweep;
        sweep.workloads = {"xpipeline", "contend"};
        sweep.coreCounts = {16};
        sweep.chipCounts = {1, 2};
        sweep.scales = {0.5};
        SweepRunner runner(WorkloadRegistry::global(), ex);
        std::ostringstream os;
        const auto sink = makeResultSink(ResultFormat::Json, os);
        runner.run(sweep, sink.get(), "multichip determinism");
        return os.str();
    };
    const std::string serial = render(nullptr);
    EXPECT_FALSE(serial.empty());
    // The chip axis must actually be in the document.
    EXPECT_NE(serial.find("\"chips\":2"), std::string::npos);
    ThreadPoolExecutor pool(4);
    EXPECT_EQ(serial, render(&pool));
    EXPECT_EQ(serial, render(&pool));
}

} // namespace
} // namespace spmcoh
