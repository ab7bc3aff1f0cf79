/**
 * @file
 * Tests for the spmcoh_run command-line layer: axis parsing into a
 * SweepSpec, defaults, variant axes, figure presets, error
 * accumulation, and the parsed sweep actually running through the
 * driver.
 */

#include <gtest/gtest.h>

#include <map>

#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "driver/Figures.hh"
#include "workloads/NasBenchmarks.hh"

namespace spmcoh
{
namespace
{

TEST(Cli, SplitList)
{
    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("one"), (std::vector<std::string>{"one"}));
    EXPECT_TRUE(splitList("").empty());
    // Empty items are preserved so the parser can reject them.
    EXPECT_EQ(splitList("a,,b"),
              (std::vector<std::string>{"a", "", "b"}));
}

TEST(Cli, DefaultsMirrorTheEvaluationSetup)
{
    const CliOptions opt = parseCli({"--workload=CG"});
    EXPECT_EQ(opt.sweep.workloads,
              (std::vector<std::string>{"CG"}));
    ASSERT_EQ(opt.sweep.modes.size(), 1u);
    EXPECT_EQ(opt.sweep.modes[0], SystemMode::HybridProto);
    EXPECT_EQ(opt.sweep.coreCounts, (std::vector<std::uint32_t>{64}));
    EXPECT_EQ(opt.sweep.scales, (std::vector<double>{1.0}));
    EXPECT_TRUE(opt.sweep.filterEntries.empty());
    EXPECT_TRUE(opt.sweep.prefetcher.empty());
    EXPECT_EQ(opt.format, ResultFormat::Table);
    EXPECT_EQ(opt.jobs, 1u);
    EXPECT_TRUE(opt.outFile.empty());
    EXPECT_TRUE(opt.withStats);
    EXPECT_FALSE(opt.help);
}

TEST(Cli, ParsesEveryAxisAndOption)
{
    const CliOptions opt = parseCli({
        "--workload=CG,IS",
        "--mode=cache,hybrid-proto",
        "--cores=8,64",
        "--scale=0.25,1.0",
        "--jobs=8",
        "--format=json",
        "--out=results.json",
        "--title=my sweep",
        "--no-stats",
    });
    EXPECT_EQ(opt.sweep.workloads,
              (std::vector<std::string>{"CG", "IS"}));
    ASSERT_EQ(opt.sweep.modes.size(), 2u);
    EXPECT_EQ(opt.sweep.modes[0], SystemMode::CacheOnly);
    EXPECT_EQ(opt.sweep.modes[1], SystemMode::HybridProto);
    EXPECT_EQ(opt.sweep.coreCounts,
              (std::vector<std::uint32_t>{8, 64}));
    EXPECT_EQ(opt.sweep.scales, (std::vector<double>{0.25, 1.0}));
    EXPECT_EQ(opt.jobs, 8u);
    EXPECT_EQ(opt.format, ResultFormat::Json);
    EXPECT_EQ(opt.outFile, "results.json");
    EXPECT_EQ(opt.title, "my sweep");
    EXPECT_EQ(opt.effectiveTitle(), "my sweep");
    EXPECT_FALSE(opt.withStats);
}

TEST(Cli, WorkloadAllExpandsToTheRegistry)
{
    const CliOptions opt = parseCli({"--workload=all"});
    EXPECT_EQ(opt.sweep.workloads,
              WorkloadRegistry::global().names());
}

TEST(Cli, JobsAutoMeansHardwareParallelism)
{
    const CliOptions opt = parseCli({"--workload=CG", "--jobs=auto"});
    EXPECT_EQ(opt.jobs, 0u);  // 0 = let the pool pick
}

TEST(Cli, FilterEntriesBecomeNamedVariants)
{
    const CliOptions opt =
        parseCli({"--workload=CG", "--filter-entries=4,48"});
    EXPECT_EQ(opt.sweep.filterEntries,
              (std::vector<std::uint32_t>{4, 48}));
    const auto specs = SweepRunner().expand(opt.sweep);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].variant(), "filter4");
    EXPECT_EQ(specs[1].variant(), "filter48");
    EXPECT_EQ(specs[1].resolvedParams().coh.filterEntries, 48u);
}

TEST(Cli, PrefetcherVariantsCombineWithFilterEntries)
{
    const CliOptions opt = parseCli({
        "--workload=CG", "--filter-entries=4,16",
        "--prefetcher=on,off"});
    EXPECT_EQ(opt.sweep.prefetcher, (std::vector<bool>{true, false}));
    const auto specs = SweepRunner().expand(opt.sweep);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].variant(), "filter4+pf-on");
    EXPECT_EQ(specs[3].variant(), "filter16+pf-off");
    const SystemParams p = specs[3].resolvedParams();
    EXPECT_EQ(p.coh.filterEntries, 16u);
    EXPECT_FALSE(p.l1d.prefetcher.enabled);
}

TEST(Cli, RejectsCountsPast32Bits)
{
    // 2^32 + 48 must not wrap to a 48-entry filter labelled
    // filter48, nor 2^32 + 2 to two workers.
    try {
        parseCli({"--workload=CG", "--filter-entries=4294967344",
                  "--jobs=4294967298"});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad filter entry count '4294967344'"),
                  std::string::npos);
        EXPECT_NE(msg.find("bad job count '4294967298'"),
                  std::string::npos);
    }
    const CliOptions opt = parseCli(
        {"--workload=CG", "--filter-entries=4294967295"});
    EXPECT_EQ(opt.sweep.filterEntries,
              (std::vector<std::uint32_t>{4294967295u}));
    EXPECT_EQ(parseCli({"--workload=CG", "--jobs=4294967295"}).jobs,
              4294967295u);
}

TEST(Cli, HelpAndListWorkloadsSkipValidation)
{
    EXPECT_TRUE(parseCli({"--help"}).help);
    EXPECT_TRUE(parseCli({"-h"}).help);
    EXPECT_TRUE(parseCli({"--list-workloads"}).listWorkloads);
    EXPECT_NE(cliUsage("spmcoh_run").find("--workload"),
              std::string::npos);
}

TEST(Cli, AccumulatesEveryError)
{
    try {
        parseCli({"--workload=CG,bogus", "--mode=nope",
                  "--cores=0", "--scale=fast", "--jobs=-2",
                  "--format=xml", "--wat"});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload 'bogus'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown mode 'nope'"),
                  std::string::npos);
        EXPECT_NE(msg.find("bad core count '0'"),
                  std::string::npos);
        EXPECT_NE(msg.find("bad scale 'fast'"), std::string::npos);
        EXPECT_NE(msg.find("bad job count '-2'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown format 'xml'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown argument '--wat'"),
                  std::string::npos);
    }
}

TEST(Cli, IntraRunThreadFlagsAreUnknown)
{
    // One event loop per simulation; --jobs is the only parallelism.
    try {
        parseCli({"--workload=CG", "--sim-threads=2",
                  "--sim-window=auto"});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown argument '--sim-threads=2'"),
                  std::string::npos);
        EXPECT_NE(msg.find("unknown argument '--sim-window=auto'"),
                  std::string::npos);
    }
}

TEST(Cli, RequiresAWorkload)
{
    try {
        parseCli({"--cores=8"});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no workload set"),
                  std::string::npos);
    }
}

TEST(Cli, GeneratedTitleNamesTheAxes)
{
    const CliOptions opt =
        parseCli({"--workload=CG,EP", "--mode=cache"});
    const std::string t = opt.effectiveTitle();
    EXPECT_NE(t.find("CG"), std::string::npos);
    EXPECT_NE(t.find("EP"), std::string::npos);
    EXPECT_NE(t.find("cache"), std::string::npos);
}

// The parsed sweep is directly runnable: this is the spmcoh_run
// main() path minus the process glue, checked against a builder
// run of the same point.
TEST(Cli, ParsedSweepRunsThroughTheDriver)
{
    const CliOptions opt = parseCli(
        {"--workload=CG", "--cores=4", "--scale=0.25",
         "--jobs=2"});
    SweepRunner runner(WorkloadRegistry::global(), opt.jobs);
    const auto results = runner.run(opt.sweep);
    ASSERT_EQ(results.size(), 1u);

    const ExperimentResult direct = ExperimentBuilder()
                                        .workload("CG")
                                        .mode(SystemMode::HybridProto)
                                        .cores(4)
                                        .scale(0.25)
                                        .run();
    EXPECT_EQ(results[0].results.cycles, direct.results.cycles);
    EXPECT_EQ(results[0].results.traffic.totalPackets(),
              direct.results.traffic.totalPackets());
}

TEST(CliFigure, EveryPresetParsesWithItsTitle)
{
    for (const Figure &f : figures()) {
        SCOPED_TRACE(f.name);
        const CliOptions opt = parseCli(
            {std::string("--figure=") + f.name, "--jobs=auto",
             "--out=fig.txt", "--no-stats"});
        EXPECT_EQ(opt.figure, &f);
        EXPECT_EQ(opt.effectiveTitle(), f.title);
        EXPECT_EQ(opt.sweep.workloads.empty(), f.args.empty());
        EXPECT_EQ(opt.jobs, 0u);
        EXPECT_FALSE(opt.withStats);
    }
}

// Reference: the SweepSpec each figure's standalone bench binary
// built; a preset must expand to the same points in the same order.
std::map<std::string, SweepSpec>
harnessSweeps()
{
    const auto eval = [](std::vector<SystemMode> modes) {
        SweepSpec s;
        for (NasBench b : allNasBenchmarks())
            s.workloads.push_back(nasBenchName(b));
        s.modes = std::move(modes);
        s.coreCounts = {64};
        s.scales = {1.0};
        return s;
    };
    std::map<std::string, SweepSpec> out;
    out["fig7"] =
        eval({SystemMode::HybridIdeal, SystemMode::HybridProto});
    out["fig8"] = eval({SystemMode::HybridProto});
    for (const char *n : {"fig9", "fig10", "fig11"})
        out[n] = eval({SystemMode::CacheOnly, SystemMode::HybridProto});

    SweepSpec filter;
    filter.workloads = {"CG", "IS"};
    filter.modes = {SystemMode::HybridProto};
    filter.filterEntries = {4, 16, 48, 128};
    out["ablation-filter"] = filter;

    SweepSpec pf;
    pf.workloads = {"FT", "MG", "SP"};
    pf.modes = {SystemMode::CacheOnly};
    pf.prefetcher = {true, false};
    out["ablation-prefetcher"] = pf;

    SweepSpec scaling;
    scaling.workloads = {"CG"};
    scaling.modes = {SystemMode::CacheOnly, SystemMode::HybridIdeal,
                     SystemMode::HybridProto};
    scaling.coreCounts = {64, 128, 256, 512, 1024};
    out["scaling"] = scaling;

    SweepSpec chips;
    chips.workloads = {"CG"};
    chips.modes = {SystemMode::HybridProto};
    chips.chipCounts = {1, 2, 4};
    out["scaling-chips"] = chips;
    return out;
}

TEST(CliFigure, SweepPresetsExpandLikeTheirOldHarnesses)
{
    const SweepRunner runner;
    const auto old = harnessSweeps();
    std::size_t sweeps = 0;
    for (const Figure &f : figures()) {
        if (f.args.empty())
            continue;
        SCOPED_TRACE(f.name);
        ++sweeps;
        ASSERT_EQ(old.count(f.name), 1u);
        const auto got = runner.expand(
            parseCli({std::string("--figure=") + f.name}).sweep);
        const auto want = runner.expand(old.at(f.name));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].label(), want[i].label());
            const SystemParams gp = got[i].resolvedParams();
            const SystemParams wp = want[i].resolvedParams();
            EXPECT_EQ(gp.coh.filterEntries, wp.coh.filterEntries);
            EXPECT_EQ(gp.l1d.prefetcher.enabled,
                      wp.l1d.prefetcher.enabled);
        }
    }
    EXPECT_EQ(sweeps, old.size());
}

// Expects parseCli(@p args) to fail with @p needle in its message.
void
expectRejected(const std::vector<std::string> &args,
               const std::string &needle)
{
    try {
        parseCli(args);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

TEST(CliFigure, FigureFixesItsAxes)
{
    expectRejected({"--figure=fig9", "--workload=CG"},
                   "--figure=fig9 fixes the sweep axes and title; "
                   "drop '--workload=CG'");
    expectRejected({"--figure=fig8", "--title=mine"},
                   "drop '--title=mine'");
}

TEST(CliFigure, UnknownFigureListsTheKnownNames)
{
    expectRejected({"--figure=fig12"},
                   "unknown figure 'fig12'; known figures: fig7, "
                   "fig8, fig9, fig10, fig11, table1, table2, "
                   "ablation-filter, ablation-prefetcher, scaling, "
                   "scaling-chips");
}

TEST(CliFigure, TablesPrintOnlyAsTables)
{
    expectRejected({"--figure=table2", "--format=json"},
                   "--figure=table2 runs no simulation");
    expectRejected({"--figure=table1", "--format=csv"},
                   "--figure=table1 runs no simulation");
    EXPECT_NE(cliUsage("spmcoh_run").find("ablation-prefetcher"),
              std::string::npos);
}

} // namespace
} // namespace spmcoh
