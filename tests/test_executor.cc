/**
 * @file
 * Tests for the sweep worker pool: the runJobs contract
 * (completion, per-slot writes, exception propagation) on synthetic
 * jobs, and end-to-end determinism of concurrent sweeps — results
 * and serialized JSON byte-identical to a serial run across worker
 * counts and repeated runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "driver/Driver.hh"

namespace spmcoh
{
namespace
{

// ------------------------------------------------ synthetic jobs

TEST(RunJobs, RunsEveryJobExactlyOnce)
{
    for (std::uint32_t workers : {0u, 1u, 2u, 7u, 32u}) {
        constexpr std::size_t n = 64;
        std::vector<std::atomic<int>> hits(n);
        runJobs(n, workers, [&hits](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "workers=" << workers << " job " << i;
    }
}

TEST(RunJobs, ZeroWorkersMeansHardwareParallelism)
{
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(resolveWorkers(0), hw ? hw : 1u);
    EXPECT_EQ(resolveWorkers(1), 1u);
    EXPECT_EQ(resolveWorkers(7), 7u);
}

TEST(RunJobs, ZeroWorkersRunsJobsConcurrently)
{
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "needs at least 2 hardware threads";
    // Each job waits until both have started; a serial run would see
    // only itself and time out.
    std::atomic<int> started{0};
    std::atomic<int> metPeer{0};
    runJobs(2, 0, [&](std::size_t) {
        ++started;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        if (started.load() == 2)
            ++metPeer;
    });
    EXPECT_EQ(metPeer.load(), 2);
}

TEST(RunJobs, EmptyBatchIsANoOp)
{
    runJobs(0, 4, [](std::size_t) { FAIL() << "no job to run"; });
}

TEST(RunJobs, PropagatesLowestIndexedFailure)
{
    // Jobs 3 and 9 fail; the pool must surface job 3's exception,
    // exactly as a serial loop would.
    for (std::uint32_t workers : {1u, 4u}) {
        try {
            runJobs(12, workers, [](std::size_t i) {
                if (i == 3 || i == 9)
                    fatal("job " + std::to_string(i) + " failed");
            });
            FAIL() << "expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("job 3 failed"),
                      std::string::npos)
                << "workers=" << workers << ": " << e.what();
        }
    }
}

TEST(RunJobs, PropagatesPanicToo)
{
    EXPECT_THROW(runJobs(2, 4,
                         [](std::size_t) { panic("invariant broke"); }),
                 PanicError);
}

TEST(RunJobs, StopsDispatchingAfterAFailure)
{
    // With one worker the queue drains in order, so nothing past
    // the failing job may run.
    std::atomic<int> ran{0};
    EXPECT_THROW(runJobs(3, 1,
                         [&ran](std::size_t i) {
                             if (i == 1)
                                 fatal("boom");
                             ++ran;
                         }),
                 FatalError);
    EXPECT_EQ(ran.load(), 1);
}

// --------------------------------------------- end-to-end sweeps

SweepSpec
smallSweep()
{
    SweepSpec sweep;
    sweep.workloads = {"CG", "EP", "IS"};
    sweep.modes = {SystemMode::CacheOnly, SystemMode::HybridProto};
    sweep.coreCounts = {4};
    sweep.scales = {0.25};
    return sweep;
}

/** Fields that must match bit-for-bit across worker counts. */
void
expectSameResults(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.label(), b[i].spec.label());
        EXPECT_EQ(a[i].results.cycles, b[i].results.cycles);
        EXPECT_EQ(a[i].results.traffic.totalPackets(),
                  b[i].results.traffic.totalPackets());
        EXPECT_EQ(a[i].results.counters.instructions,
                  b[i].results.counters.instructions);
        EXPECT_EQ(a[i].results.filterHits, b[i].results.filterHits);
    }
}

TEST(SweepWorkers, FourWorkersMatchSerial)
{
    SweepRunner serial;
    const auto expect = serial.run(smallSweep());

    SweepRunner concurrent(WorkloadRegistry::global(), 4);
    const auto got = concurrent.run(smallSweep());
    expectSameResults(expect, got);

    // Repeated concurrent runs are deterministic too.
    const auto again = concurrent.run(smallSweep());
    expectSameResults(expect, again);
}

TEST(SweepWorkers, JsonExportByteIdenticalAcrossWorkerCounts)
{
    auto render = [](std::uint32_t jobs) {
        SweepRunner runner(WorkloadRegistry::global(), jobs);
        std::ostringstream os;
        const auto sink = makeResultSink(ResultFormat::Json, os);
        runner.run(smallSweep(), sink.get(), "determinism");
        return os.str();
    };
    const std::string serial = render(1);
    EXPECT_EQ(serial, render(4));
    EXPECT_EQ(serial, render(2));
    EXPECT_FALSE(serial.empty());
}

} // namespace
} // namespace spmcoh
