/**
 * @file
 * Tests for the spmcoh_run command-line layer: axis parsing into a
 * SweepSpec, defaults, variant axes, error accumulation, and the
 * parsed sweep actually running through the driver.
 */

#include <gtest/gtest.h>

#include "driver/Cli.hh"
#include "driver/Driver.hh"

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
    EXPECT_TRUE(opt.sweep.variants.empty());
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
    ASSERT_EQ(opt.sweep.variants.size(), 2u);
    EXPECT_EQ(opt.sweep.variants[0].name, "filter4");
    EXPECT_EQ(opt.sweep.variants[1].name, "filter48");
    SystemParams p;
    opt.sweep.variants[1].tweak(p);
    EXPECT_EQ(p.coh.filterEntries, 48u);
}

TEST(Cli, PrefetcherVariantsCombineWithFilterEntries)
{
    const CliOptions opt = parseCli({
        "--workload=CG", "--filter-entries=4,16",
        "--prefetcher=on,off"});
    ASSERT_EQ(opt.sweep.variants.size(), 4u);
    EXPECT_EQ(opt.sweep.variants[0].name, "filter4+pf-on");
    EXPECT_EQ(opt.sweep.variants[3].name, "filter16+pf-off");
    SystemParams p;
    opt.sweep.variants[3].tweak(p);
    EXPECT_EQ(p.coh.filterEntries, 16u);
    EXPECT_FALSE(p.l1d.prefetcher.enabled);
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
    ThreadPoolExecutor pool(opt.jobs);
    SweepRunner runner(WorkloadRegistry::global(), &pool);
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

} // namespace
} // namespace spmcoh
