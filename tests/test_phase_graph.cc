/**
 * @file
 * Phase-graph semantics: ProgramBuilder graph diagnostics, schedule
 * resolution (steps, scoped-barrier parties), byte-identical
 * degenerate lowering of flat programs, cache-vs-hybrid final-memory
 * equivalence of the pipeline workload and per-phase stats export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/Driver.hh"
#include "runtime/PhaseSchedule.hh"
#include "workloads/Kernels.hh"
#include "workloads/ProgramBuilder.hh"

namespace spmcoh
{
namespace
{

template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** 4-core producer/consumer/drain graph used across the tests. */
ProgramDecl
tinyPipeline(std::uint32_t cores = 4)
{
    ProgramBuilder b("tiny", cores, 5);
    const std::uint32_t half = cores / 2;
    const std::uint64_t section = spmSectionBytes(1, 4096, 1.0);
    const std::uint32_t buf = b.privateArray("buf", section);
    const std::uint32_t out = b.privateArray("out", section);
    KernelBuilder produce =
        b.kernel("produce", half * (section / 8))
            .onCores(0, half)
            .strided(buf, true)
            .produces(buf);
    KernelBuilder consume =
        b.kernel("consume", half * (section / 8))
            .onCores(half, half)
            .strided(out, true)
            .pointerChase(buf, false, 0.8, 4096)
            .after(produce.id())
            .consumes(buf);
    b.kernel("drain", cores * (section / 8))
        .strided(out)
        .after(consume.id());
    b.timesteps(2);
    return b.build();
}

// ------------------------------------------------ diagnostics

TEST(PhaseGraphDiagnostics, RejectsDependencyCycle)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("cyc", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 4).strided(a).after(1);
        b.kernel("k1", 4).strided(a).after(0);
        b.build();
    });
    EXPECT_NE(msg.find("dependency cycle"), std::string::npos);
    EXPECT_NE(msg.find("k0"), std::string::npos);
    EXPECT_NE(msg.find("k1"), std::string::npos);
}

TEST(PhaseGraphDiagnostics, RejectsDanglingDependency)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("dang", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 4).strided(a).after(7);
        b.build();
    });
    EXPECT_NE(msg.find("undeclared kernel id 7"), std::string::npos);
}

TEST(PhaseGraphDiagnostics, RejectsSelfDependency)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("self", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 4).strided(a).after(0);
        b.build();
    });
    EXPECT_NE(msg.find("depends on itself"), std::string::npos);
}

TEST(PhaseGraphDiagnostics, RejectsEmptyGroup)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("empty", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 4).strided(a).onCores(0, 0);
        b.build();
    });
    EXPECT_NE(msg.find("empty core group"), std::string::npos);
}

TEST(PhaseGraphDiagnostics, RejectsGroupBeyondMachine)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("oob", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 2).strided(a).onCores(2, 3);
        b.build();
    });
    EXPECT_NE(msg.find("exceeds the 4-core machine"),
              std::string::npos);
}

TEST(PhaseGraphDiagnostics, RejectsUnorderedOverlappingGroups)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("ovl", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 3).strided(a).onCores(0, 3);
        b.kernel("k1", 3).strided(a).onCores(1, 3);
        b.build();
    });
    EXPECT_NE(msg.find("share cores but no dependency path"),
              std::string::npos);
}

TEST(PhaseGraphDiagnostics, AllowsConcurrentDisjointGroups)
{
    ProgramBuilder b("disj", 4);
    const std::uint32_t a = b.privateArray("a", 4096);
    b.kernel("k0", 2).strided(a).onCores(0, 2);
    b.kernel("k1", 2).strided(a).onCores(2, 2);
    const ProgramDecl d = b.build();
    // Truly concurrent: no chain was injected.
    EXPECT_TRUE(d.kernels[0].deps.empty());
    EXPECT_TRUE(d.kernels[1].deps.empty());
}

TEST(PhaseGraphDiagnostics, RejectsConsumerBeforeProducer)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("cbp", 4);
        const std::uint32_t buf = b.privateArray("buf", 4096);
        const std::uint32_t out = b.privateArray("out", 4096);
        // consume has no dependency path from the producer.
        b.kernel("consume", 2)
            .onCores(0, 2)
            .strided(out, true)
            .consumes(buf);
        b.kernel("produce", 2)
            .onCores(2, 2)
            .strided(buf, true)
            .produces(buf);
        b.build();
    });
    EXPECT_NE(msg.find("consumes 'buf' before any producer"),
              std::string::npos);
}

TEST(PhaseGraphDiagnostics, RejectsIterationsNotDividingGroup)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("div", 4);
        const std::uint32_t a = b.privateArray("a", 4096);
        b.kernel("k0", 3).strided(a).onCores(0, 2);
        b.build();
    });
    EXPECT_NE(msg.find("do not divide across its 2-core group"),
              std::string::npos);
}

// ----------------------------------------- schedule resolution

TEST(PhaseSchedule, FlatProgramLowersToChain)
{
    ProgramBuilder b("flat", 4);
    const std::uint32_t a = b.privateArray("a", 4096);
    b.kernel("k0", 4).strided(a);
    b.kernel("k1", 4).strided(a);
    const ProgramDecl d = b.build();
    ASSERT_EQ(d.kernels[1].deps.size(), 1u);
    EXPECT_EQ(d.kernels[1].deps[0], 0u);

    const PhaseSchedule s(d, 4);
    EXPECT_EQ(s.numGroups(), 1u);
    EXPECT_EQ(s.numEdges(), 1u);
    EXPECT_EQ(s.topoOrder(), (std::vector<std::uint32_t>{0, 1}));
    // Degenerate graph: every barrier is all-cores.
    for (std::uint32_t k = 0; k < 2; ++k) {
        EXPECT_EQ(s.barrier(k).parties, 4u);
        EXPECT_EQ(s.barrier(k).partiesLast, 4u);
    }
    // Every core runs every kernel with no cross-group waits.
    for (std::uint32_t c = 0; c < 4; ++c) {
        const auto steps = s.stepsFor(c);
        ASSERT_EQ(steps.size(), 2u);
        EXPECT_TRUE(steps[0].waits.empty());
        EXPECT_TRUE(steps[1].waits.empty());
    }
}

TEST(PhaseSchedule, PipelineBarriersScopeToMembership)
{
    const ProgramDecl d = tinyPipeline(4);
    const PhaseSchedule s(d, 4);
    EXPECT_EQ(s.numGroups(), 3u);
    EXPECT_EQ(s.numEdges(), 2u);

    // produce: 2 members + 2 consumer waiters.
    EXPECT_EQ(s.barrier(0).parties, 4u);
    // consume: 2 members + the 2 drain cores outside the group.
    EXPECT_EQ(s.barrier(1).parties, 4u);
    // drain (sink): all 4 members; next-timestep producers are
    // already members, so the mid/final counts agree.
    EXPECT_EQ(s.barrier(2).parties, 4u);
    EXPECT_EQ(s.barrier(2).partiesLast, 4u);

    // A producer core skips consume but waits on its barrier before
    // the drain phase.
    const auto steps0 = s.stepsFor(0);
    ASSERT_EQ(steps0.size(), 2u);
    EXPECT_EQ(steps0[0].kernelIdx, 0u);
    EXPECT_EQ(steps0[1].kernelIdx, 2u);
    ASSERT_EQ(steps0[1].waits.size(), 1u);
    EXPECT_EQ(steps0[1].waits[0], 1u);
    // A consumer core waits on the producers before running.
    const auto steps2 = s.stepsFor(2);
    ASSERT_EQ(steps2.size(), 2u);
    EXPECT_EQ(steps2[0].kernelIdx, 1u);
    ASSERT_EQ(steps2[0].waits.size(), 1u);
    EXPECT_EQ(steps2[0].waits[0], 0u);
    EXPECT_TRUE(steps2[1].waits.empty());
}

TEST(PhaseSchedule, SubgroupBarrierPartiesWhenNoJoinPhase)
{
    ProgramBuilder b("sub", 4);
    const std::uint64_t section = spmSectionBytes(1, 4096, 1.0);
    const std::uint32_t buf = b.privateArray("buf", section);
    const std::uint32_t out = b.privateArray("out", section);
    KernelBuilder produce =
        b.kernel("produce", 2 * (section / 8))
            .onCores(0, 2)
            .strided(buf, true);
    b.kernel("consume", 2 * (section / 8))
        .onCores(2, 2)
        .strided(out, true)
        .after(produce.id());
    const ProgramDecl d = b.build();
    const PhaseSchedule s(d, 4);
    // produce: 2 members + 2 waiters; consume (sink, 1 timestep):
    // only its 2 members.
    EXPECT_EQ(s.barrier(0).parties, 4u);
    EXPECT_EQ(s.barrier(1).partiesLast, 2u);
    EXPECT_EQ(s.barrier(1).loCore, 2u);
    EXPECT_EQ(s.barrier(1).hiCore, 3u);
}

// ------------------------------------ end-to-end equivalences

/** Coherent read of one word via a DMA snapshot at the directory. */
std::uint64_t
coherentRead64(System &sys, Addr addr)
{
    const Addr line = lineAlign(addr);
    LineData out;
    bool done = false;
    sys.memNet().setHandler(Endpoint::Dmac, 0,
                            [&](const Message &m) {
        if (m.type == MsgType::DmaReadResp) {
            out = m.data;
            done = true;
        }
    });
    Message m;
    m.type = MsgType::DmaRead;
    m.addr = line;
    m.requestor = 0;
    m.cls = TrafficClass::Dma;
    sys.memNet().send(0, Endpoint::Dir,
                      sys.memNet().homeSlice(line), m,
                      TrafficClass::Dma);
    sys.events().run();
    EXPECT_TRUE(done);
    return out.read64(lineOffset(addr) & ~7u);
}

std::vector<std::uint64_t>
runPipelineAndSample(SystemMode mode)
{
    constexpr std::uint32_t cores = 4;
    SystemParams sp = SystemParams::forMode(mode, cores);
    System sys(sp);
    const ProgramDecl prog = WorkloadRegistry::global().build(
        "pipeline", cores, 0.5);
    PreparedProgram pp = prepareProgram(prog, cores, sp.spmBytes);
    EXPECT_TRUE(sys.run(makeSources(pp, cores, mode, sp.spmBytes)));
    std::vector<std::uint64_t> sample;
    for (const ArrayDecl &a : prog.arrays) {
        const Addr base = pp.layout.baseOf(a.id);
        for (Addr off = 0; off + 8 <= a.bytes; off += 512)
            sample.push_back(coherentRead64(sys, base + off));
    }
    return sample;
}

TEST(PipelineWorkload, FinalMemoryMatchesCacheBaseline)
{
    const auto cache = runPipelineAndSample(SystemMode::CacheOnly);
    const auto proto = runPipelineAndSample(SystemMode::HybridProto);
    ASSERT_EQ(cache.size(), proto.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cache.size(); ++i)
        mismatches += cache[i] != proto[i];
    EXPECT_EQ(mismatches, 0u);
}

TEST(PipelineWorkload, CrossGroupSpmCoherenceTraffic)
{
    const ExperimentResult r = ExperimentBuilder()
                                   .workload("pipeline")
                                   .mode(SystemMode::HybridProto)
                                   .cores(8)
                                   .scale(0.5)
                                   .run();
    // Consumer guarded reads divert to the producers' still-mapped
    // SPM buffers: the Fig. 5d remote-SPM path.
    EXPECT_GT(r.results.remoteSpmServed, 0u);
    EXPECT_GT(r.results.counters.filterDirOps, 0u);
    EXPECT_GT(r.results.traffic.classPackets(TrafficClass::CohProt),
              0u);
}

TEST(PipelineWorkload, PerPhaseStatsExported)
{
    const ExperimentResult r = ExperimentBuilder()
                                   .workload("pipeline")
                                   .mode(SystemMode::HybridProto)
                                   .cores(4)
                                   .scale(0.5)
                                   .run();
    const auto &core = r.stats.at("core").counters;
    // Three phases, all with cycles; only the consumer phase (id 1)
    // performs guarded accesses.
    EXPECT_GT(core.at("phase0Cycles"), 0u);
    EXPECT_GT(core.at("phase1Cycles"), 0u);
    EXPECT_GT(core.at("phase2Cycles"), 0u);
    EXPECT_GT(core.at("phase1Guarded"), 0u);
    EXPECT_EQ(core.count("phase2Guarded"), 0u);
    // Directory/controller histograms export alongside.
    EXPECT_GT(r.stats.at("dir").histograms.at("txnLatency").samples,
              0u);
    EXPECT_GT(
        r.stats.at("dir").histograms.at("txnOccupancy").samples, 0u);
    EXPECT_GT(
        r.stats.at("coh").histograms.at("resolveLatency").samples,
        0u);
    EXPECT_GT(
        r.stats.at("coh").histograms.at("pendingOccupancy").samples,
        0u);
}

/** JSON sweep output on @p jobs workers, flat (CG) and phase-graph
 *  (pipeline) workloads together. */
std::string
runSweepJson(std::uint32_t jobs)
{
    SweepSpec sweep;
    sweep.workloads = {"CG", "pipeline"};
    sweep.modes = {SystemMode::CacheOnly, SystemMode::HybridProto};
    sweep.coreCounts = {8};
    sweep.scales = {0.5};
    SweepRunner runner(WorkloadRegistry::global(), jobs);
    std::ostringstream os;
    const auto sink = makeResultSink(ResultFormat::Json, os, false);
    runner.run(sweep, sink.get(), "phase-graph determinism");
    return os.str();
}

TEST(PhaseGraphExecution, JsonByteIdenticalAcrossWorkers)
{
    const std::string serial = runSweepJson(1);
    const std::string threaded = runSweepJson(4);
    EXPECT_EQ(serial, threaded);
    EXPECT_NE(serial.find("\"workload\":\"pipeline\""),
              std::string::npos);
}

} // namespace
} // namespace spmcoh
