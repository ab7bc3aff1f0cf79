/**
 * @file
 * Tests for the workload authoring API: ProgramBuilder validation
 * (every diagnostic class fires), WorkloadSpec parameter defaulting
 * and range rejection, --wparam CLI parsing, and the parameter axis
 * threaded through sweeps.
 */

#include <gtest/gtest.h>

#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "workloads/Kernels.hh"
#include "workloads/NasBenchmarks.hh"
#include "workloads/ProgramBuilder.hh"

namespace spmcoh
{
namespace
{

// ---------------------------------------------------- ProgramBuilder

/** The fatal message produced by fn, or "" when it does not throw. */
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

TEST(ProgramBuilder, AutoWiresArrayAndRefIds)
{
    ProgramBuilder b("demo", 4, 42);
    const std::uint32_t a0 = b.privateArray("a0", 4096);
    const std::uint32_t a1 = b.privateArray("a1", 4096);
    const std::uint32_t t = b.sharedArray("t", 1000);
    b.kernel("k", 4 * 512, 10, 1024)
        .strided(a0)
        .strided(a1, true)
        .pointerChase(t, false, 0.5, 512);
    b.timesteps(3);
    const ProgramDecl prog = b.build();

    EXPECT_EQ(prog.name, "demo");
    EXPECT_EQ(prog.seed, 42u);
    EXPECT_EQ(prog.timesteps, 3u);
    ASSERT_EQ(prog.arrays.size(), 3u);
    EXPECT_EQ(prog.arrays[0].id, a0);
    EXPECT_EQ(prog.arrays[1].id, a1);
    EXPECT_EQ(prog.arrays[2].id, t);
    EXPECT_EQ(prog.arrays[0].bytes, 4u * 4096u);
    EXPECT_TRUE(prog.arrays[0].threadPrivateSection);
    // Shared array sizes round up to a line multiple.
    EXPECT_EQ(prog.arrays[2].bytes, 1024u);
    EXPECT_FALSE(prog.arrays[2].threadPrivateSection);
    ASSERT_EQ(prog.kernels.size(), 1u);
    ASSERT_EQ(prog.kernels[0].refs.size(), 3u);
    EXPECT_EQ(prog.kernels[0].refs[0].id, 0u);
    EXPECT_EQ(prog.kernels[0].refs[1].id, 1u);
    EXPECT_EQ(prog.kernels[0].refs[2].id, 2u);
    EXPECT_TRUE(prog.kernels[0].refs[2].pointerBased);
    EXPECT_EQ(prog.kernels[0].refs[2].pattern,
              AccessPattern::PointerChase);
}

TEST(ProgramBuilder, RejectsProgramWithNoKernels)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder("empty", 4).build();
    });
    EXPECT_NE(msg.find("declares no kernels"), std::string::npos);
}

TEST(ProgramBuilder, RejectsZeroIterationKernel)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("z", 4);
        b.kernel("k", 0);
        b.build();
    });
    EXPECT_NE(msg.find("kernel 'k' has zero iterations"),
              std::string::npos);
}

TEST(ProgramBuilder, RejectsIterationsNotDividingAcrossCores)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("z", 4);
        b.kernel("k", 6);
        b.build();
    });
    EXPECT_NE(msg.find("do not divide across its 4-core group"),
              std::string::npos);
}

TEST(ProgramBuilder, RejectsDanglingArrayId)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("d", 4);
        b.kernel("k", 4).strided(99);
        b.build();
    });
    EXPECT_NE(msg.find("undeclared array id 99"), std::string::npos);
}

TEST(ProgramBuilder, RejectsZeroByteArray)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("zb", 4);
        const std::uint32_t a = b.sharedArray("empty", 0);
        b.kernel("k", 4).pointerChase(a, false, 0.5, 64);
        b.build();
    });
    EXPECT_NE(msg.find("array 'empty' has zero bytes"),
              std::string::npos);
}

TEST(ProgramBuilder, RejectsHotFractionOutsideUnitInterval)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("hf", 4);
        const std::uint32_t t = b.sharedArray("t", 4096);
        b.kernel("k", 4).pointerChase(t, false, 1.5, 64);
        b.build();
    });
    EXPECT_NE(msg.find("hot fraction outside [0, 1]"),
              std::string::npos);
}

TEST(ProgramBuilder, RejectsSectionBelowALine)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("sl", 4);
        const std::uint32_t a = b.privateArray("tiny", 32);
        b.kernel("k", 4).strided(a);
        b.build();
    });
    EXPECT_NE(msg.find("smaller than a cache line"),
              std::string::npos);
}

TEST(ProgramBuilder, RejectsSectionThatDoesNotTileTheSpm)
{
    // One SPM ref on a 32KB SPM picks a 192-byte-capped 128-byte
    // buffer; a 192-byte section leaves a 64-byte remainder.
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("nt", 4);
        const std::uint32_t a = b.privateArray("ragged", 192);
        b.kernel("k", 4).strided(a);
        b.build();
    });
    EXPECT_NE(msg.find("does not tile"), std::string::npos);
    EXPECT_NE(msg.find("ragged"), std::string::npos);
}

TEST(ProgramBuilder, RejectsStrideLargerThanTheBuffer)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("st", 4);
        const std::uint32_t a = b.privateArray("wide", 128);
        b.kernel("k", 4).strided(a, false, 4096);
        b.build();
    });
    EXPECT_NE(msg.find("exceeds the"), std::string::npos);
}

TEST(ProgramBuilder, AccumulatesEveryDiagnostic)
{
    const std::string msg = fatalMessage([] {
        ProgramBuilder b("multi", 4);
        b.kernel("k0", 0).strided(7);
        b.kernel("k1", 6);
        b.build();
    });
    EXPECT_NE(msg.find("zero iterations"), std::string::npos);
    EXPECT_NE(msg.find("undeclared array id 7"), std::string::npos);
    EXPECT_NE(msg.find("do not divide"), std::string::npos);
}

TEST(ProgramBuilder, SpmSectionBytesAlwaysTiles)
{
    // Sections from the helper pass the tiling validation for any
    // scale and reference count.
    for (std::uint32_t refs : {1u, 3u, 7u, 20u}) {
        for (double scale : {0.1, 0.25, 0.9, 1.0, 3.7}) {
            ProgramBuilder b("tile", 8);
            const std::uint64_t section =
                spmSectionBytes(refs, 8 * 1024, scale);
            KernelBuilder k = b.kernel("k", 8 * (section / 8));
            for (std::uint32_t r = 0; r < refs; ++r)
                k.strided(b.privateArray("a" + std::to_string(r),
                                         section));
            EXPECT_NO_THROW(b.build())
                << refs << " refs, scale " << scale;
        }
    }
}

TEST(ProgramBuilder, NasModelsRebuiltOnTheBuilderKeepTable2Shape)
{
    // The NAS models now construct through ProgramBuilder; their
    // Table 2 structure must be intact (the full check lives in
    // test_workloads.cc — this guards the builder migration).
    const BenchCharacterization cg =
        characterize(buildNasBenchmark(NasBench::CG, 64));
    EXPECT_EQ(cg.spmRefs, 5u);
    EXPECT_EQ(cg.guardedRefs, 1u);
    const BenchCharacterization sp =
        characterize(buildNasBenchmark(NasBench::SP, 64));
    EXPECT_EQ(sp.kernels, 54u);
    EXPECT_EQ(sp.spmRefs, 497u);
}

// ------------------------------------------------------ WorkloadSpec

TEST(WorkloadSpec, MissingParametersTakeDefaults)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    const ProgramDecl def = reg.build("stencil", 8);
    WorkloadParams explicit_defaults;
    explicit_defaults.set("grids", 7).set("sectionKB", 16);
    const ProgramDecl expl =
        reg.build("stencil", 8, 1.0, explicit_defaults);
    ASSERT_EQ(def.arrays.size(), expl.arrays.size());
    EXPECT_EQ(def.arrays.size(), 7u);
    for (std::size_t i = 0; i < def.arrays.size(); ++i)
        EXPECT_EQ(def.arrays[i].bytes, expl.arrays[i].bytes);
    ASSERT_EQ(def.kernels.size(), 1u);
    EXPECT_EQ(def.kernels[0].iterations,
              expl.kernels[0].iterations);
}

TEST(WorkloadSpec, ParametersChangeTheProgram)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    const ProgramDecl three = reg.build(
        "stencil", 8, 1.0, WorkloadParams().set("grids", 3));
    EXPECT_EQ(three.arrays.size(), 3u);
    const ProgramDecl aliased = reg.build(
        "gather", 8, 1.0, WorkloadParams().set("aliased", 1));
    // The lookup targets the SPM-mapped stream (array 0 == x).
    EXPECT_EQ(aliased.kernels[0].refs[2].arrayId, 0u);
}

TEST(WorkloadSpec, RejectsUnknownParameterListingDeclaredOnes)
{
    const std::string msg = fatalMessage([] {
        WorkloadRegistry::global().build(
            "stencil", 8, 1.0, WorkloadParams().set("bogus", 1));
    });
    EXPECT_NE(msg.find("no parameter 'bogus'"), std::string::npos);
    EXPECT_NE(msg.find("grids"), std::string::npos);
    EXPECT_NE(msg.find("sectionKB"), std::string::npos);
}

TEST(WorkloadSpec, RejectsOutOfRangeValues)
{
    for (double bad : {0.0, 31.0, -3.0}) {
        const std::string msg = fatalMessage([bad] {
            WorkloadRegistry::global().build(
                "stencil", 8, 1.0,
                WorkloadParams().set("grids", bad));
        });
        EXPECT_NE(msg.find("outside [1, 30]"), std::string::npos)
            << bad;
    }
}

TEST(WorkloadSpec, UIntParametersRejectNonIntegralValues)
{
    const std::string msg = fatalMessage([] {
        WorkloadRegistry::global().build(
            "stencil", 8, 1.0, WorkloadParams().set("grids", 2.5));
    });
    EXPECT_NE(msg.find("must be an integer"), std::string::npos);
    // Real parameters accept fractions.
    EXPECT_NO_THROW(WorkloadRegistry::global().build(
        "gather", 8, 1.0, WorkloadParams().set("hotFrac", 0.25)));
}

TEST(WorkloadSpec, ResolveFillsEveryDeclaredParameter)
{
    const WorkloadSpec &s =
        WorkloadRegistry::global().spec("pchase");
    const WorkloadParams r =
        s.resolve(WorkloadParams().set("chases", 4));
    EXPECT_EQ(r.getUInt("chases"), 4u);
    EXPECT_EQ(r.getUInt("poolKB"), 256u);
    EXPECT_DOUBLE_EQ(r.get("hotFrac"), 0.9);
    EXPECT_EQ(r.all().size(), s.params.size());
}

TEST(WorkloadSpec, RegistryRejectsMisdeclaredSpecs)
{
    WorkloadRegistry reg;
    WorkloadSpec s;
    s.name = "bad";
    s.factory = [](std::uint32_t, double, const WorkloadParams &) {
        return ProgramDecl{};
    };
    s.params = {ParamSpec{"p", "", ParamType::UInt, 5, 10, 20}};
    // Default outside [min, max].
    EXPECT_THROW(reg.add(std::move(s)), FatalError);
}

TEST(WorkloadSpec, ParameterlessSpecRejectsParameters)
{
    WorkloadRegistry reg;
    reg.add({"w", "", {},
             [](std::uint32_t, double, const WorkloadParams &) {
                 return ProgramDecl{};
             }});
    EXPECT_TRUE(reg.spec("w").params.empty());
    // Passing any parameter to a parameterless workload is an error.
    EXPECT_THROW(reg.build("w", 4, 1.0, WorkloadParams().set("x", 1)),
                 FatalError);
}

// ------------------------------------------------- experiment layer

TEST(ExperimentWithParams, LabelCarriesSortedParams)
{
    ExperimentSpec s;
    s.workload = "stencil";
    s.cores = 8;
    EXPECT_EQ(s.label(), "stencil/hybrid-proto/8c/x1.00");
    s.wparams.set("sectionKB", 8).set("grids", 5);
    EXPECT_EQ(s.label(),
              "stencil/hybrid-proto/8c/x1.00{grids=5,sectionKB=8}");
    s.filterEntries = 8;
    EXPECT_EQ(
        s.label(),
        "stencil/hybrid-proto/8c/x1.00{grids=5,sectionKB=8}+filter8");
}

TEST(ExperimentWithParams, BuilderValidatesParamsUpfront)
{
    const std::string msg = fatalMessage([] {
        ExperimentBuilder()
            .workload("stencil")
            .cores(8)
            .param("bogus", 1)
            .spec();
    });
    EXPECT_NE(msg.find("no parameter 'bogus'"), std::string::npos);
}

TEST(ExperimentWithParams, SweepParamAxisExpandsAndCaches)
{
    SweepSpec sweep;
    sweep.workloads = {"stencil"};
    sweep.coreCounts = {4};
    sweep.paramPoints = expandParamAxes(
        {{"grids", {2, 4}}, {"sectionKB", {8}}});
    SweepRunner runner;
    const auto specs = runner.expand(sweep);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].wparams.getUInt("grids"), 2u);
    EXPECT_EQ(specs[1].wparams.getUInt("grids"), 4u);
    const auto results = runner.run(sweep);
    ASSERT_EQ(results.size(), 2u);
    // Distinct parameter points are distinct programs: no false
    // cache sharing.
    EXPECT_EQ(runner.cacheStats().compiles, 2u);
    EXPECT_EQ(runner.cacheStats().hits, 0u);
    EXPECT_NE(results[0].results.counters.spmAccesses,
              results[1].results.counters.spmAccesses);
}

TEST(WorkloadParams, RenderingNeverCollidesDistinctValues)
{
    // "%g" alone truncates to 6 significant digits; rendering must
    // escalate to full precision when the short form does not
    // round-trip, because labels and cache keys are built from it.
    const std::string a =
        WorkloadParams().set("hotFrac", 0.1234567).render();
    const std::string b =
        WorkloadParams().set("hotFrac", 0.1234568).render();
    EXPECT_NE(a, b);
    // The common values stay short and readable.
    EXPECT_EQ(WorkloadParams().set("grids", 7).render(), "grids=7");
    EXPECT_EQ(WorkloadParams().set("f", 0.5).render(), "f=0.5");
}

TEST(ExperimentWithParams, CacheNormalizesExplicitDefaults)
{
    // Spelling out a parameter's default compiles the same program
    // as omitting it: the cache keys on the spec-resolved params.
    SweepSpec sweep;
    sweep.workloads = {"stencil"};
    sweep.coreCounts = {4};
    sweep.paramPoints = {WorkloadParams{},
                         WorkloadParams().set("grids", 7)};
    SweepRunner runner;
    const auto results = runner.run(sweep);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(runner.cacheStats().compiles, 1u);
    EXPECT_EQ(runner.cacheStats().hits, 1u);
    EXPECT_EQ(results[0].results.cycles, results[1].results.cycles);
}

TEST(ExpandParamAxes, OrderingAndErrors)
{
    const auto pts = expandParamAxes(
        {{"a", {1, 2}}, {"b", {10, 20}}});
    ASSERT_EQ(pts.size(), 4u);
    // First axis outermost, later axes fastest.
    EXPECT_EQ(pts[0].render(), "a=1,b=10");
    EXPECT_EQ(pts[1].render(), "a=1,b=20");
    EXPECT_EQ(pts[2].render(), "a=2,b=10");
    EXPECT_EQ(pts[3].render(), "a=2,b=20");
    EXPECT_TRUE(expandParamAxes({}).empty());
    EXPECT_THROW(expandParamAxes({{"a", {}}}), FatalError);
    EXPECT_THROW(expandParamAxes({{"a", {1}}, {"a", {2}}}),
                 FatalError);
}

// --------------------------------------------------------------- CLI

TEST(CliWparam, SingleAssignment)
{
    const CliOptions opt =
        parseCli({"--workload=stencil", "--wparam=grids=5"});
    ASSERT_EQ(opt.sweep.paramPoints.size(), 1u);
    EXPECT_EQ(opt.sweep.paramPoints[0].render(), "grids=5");
}

TEST(CliWparam, CommaListsAndRepeatsAreCartesian)
{
    const CliOptions opt = parseCli({"--workload=stencil",
                                     "--wparam=grids=3,5,7",
                                     "--wparam=sectionKB=8,16"});
    ASSERT_EQ(opt.sweep.paramPoints.size(), 6u);
    EXPECT_EQ(opt.sweep.paramPoints[0].render(),
              "grids=3,sectionKB=8");
    EXPECT_EQ(opt.sweep.paramPoints[5].render(),
              "grids=7,sectionKB=16");
}

TEST(CliWparam, DefaultIsNoParamPoints)
{
    const CliOptions opt = parseCli({"--workload=CG"});
    EXPECT_TRUE(opt.sweep.paramPoints.empty());
}

TEST(CliWparam, RejectsMalformedAssignments)
{
    const std::string msg = fatalMessage([] {
        parseCli({"--workload=stencil", "--wparam=grids",
                  "--wparam==5", "--wparam=hot=fast",
                  "--wparam=sectionKB="});
    });
    EXPECT_NE(msg.find("bad --wparam 'grids'"), std::string::npos);
    EXPECT_NE(msg.find("bad --wparam '=5'"), std::string::npos);
    EXPECT_NE(msg.find("bad --wparam value 'fast'"),
              std::string::npos);
    EXPECT_NE(msg.find("'sectionKB' lists no values"),
              std::string::npos);
}

TEST(CliWparam, RejectsDuplicateParameter)
{
    const std::string msg = fatalMessage([] {
        parseCli({"--workload=stencil", "--wparam=grids=3",
                  "--wparam=grids=5"});
    });
    EXPECT_NE(msg.find("'grids' given twice"), std::string::npos);
}

TEST(CliWparam, UnknownParameterRejectedAtSweepExpansion)
{
    const CliOptions opt =
        parseCli({"--workload=stencil", "--cores=4",
                  "--wparam=bogus=1"});
    const std::string msg = fatalMessage([&opt] {
        SweepRunner().expand(opt.sweep);
    });
    EXPECT_NE(msg.find("no parameter 'bogus'"), std::string::npos);
}

// -------------------------------------------- MSHR occupancy stats

TEST(MshrOccupancy, HistogramExportsThroughTheSnapshot)
{
    const ExperimentResult r = ExperimentBuilder()
                                   .workload("CG")
                                   .mode(SystemMode::CacheOnly)
                                   .cores(4)
                                   .scale(0.25)
                                   .run();
    const auto it = r.stats.find("l1d");
    ASSERT_NE(it, r.stats.end());
    const auto hist = it->second.histograms.find("mshrOccupancy");
    ASSERT_NE(hist, it->second.histograms.end());
    EXPECT_GT(hist->second.samples, 0u);
    EXPECT_GE(hist->second.maxValue, 1u);
    // Allocate/release sampling is balanced: the aggregate is even.
    EXPECT_EQ(hist->second.samples % 2, 0u);
    std::uint64_t total = 0;
    for (std::uint64_t b : hist->second.buckets)
        total += b;
    EXPECT_EQ(total, hist->second.samples);
}

} // namespace
} // namespace spmcoh
