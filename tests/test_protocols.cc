/**
 * @file
 * Tests of the pluggable protocol subsystem: factory lookup and
 * registration rules, the per-protocol transition tables and policy
 * hooks, experiment-spec threading (validation, labels), and
 * byte-identity of the default protocol's JSON output against the
 * checked-in golden.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "driver/Cli.hh"
#include "driver/Driver.hh"
#include "protocols/ProtocolFactory.hh"

namespace spmcoh
{
namespace
{

// ------------------------------------------------------ factory API

TEST(ProtocolFactory, GlobalHasBuiltins)
{
    const ProtocolFactory &pf = ProtocolFactory::global();
    const std::vector<std::string> names = pf.names();
    EXPECT_GE(names.size(), 3u);
    for (const char *n : {"spm-hybrid", "moesi", "mesi", "dragon"}) {
        EXPECT_TRUE(pf.contains(n)) << n;
        const CoherenceProtocol *p = pf.find(n);
        ASSERT_NE(p, nullptr) << n;
        EXPECT_EQ(p->name(), n);
        EXPECT_FALSE(p->description().empty()) << n;
        EXPECT_EQ(&pf.get(n), p) << n;
    }
    EXPECT_EQ(ProtocolFactory::defaultName(), "spm-hybrid");
    EXPECT_EQ(&ProtocolFactory::defaultProtocol(),
              pf.find("spm-hybrid"));
}

TEST(ProtocolFactory, UnknownNameRejected)
{
    const ProtocolFactory &pf = ProtocolFactory::global();
    EXPECT_FALSE(pf.contains("mosi"));
    EXPECT_EQ(pf.find("mosi"), nullptr);
    EXPECT_THROW(pf.get("mosi"), FatalError);
    try {
        pf.get("mosi");
    } catch (const FatalError &e) {
        // The error must list the registered names for the user.
        EXPECT_NE(std::string(e.what()).find("spm-hybrid"),
                  std::string::npos);
    }
}

/** A protocol with an empty table. */
std::unique_ptr<CoherenceProtocol>
stubProtocol(const std::string &n)
{
    return std::make_unique<CoherenceProtocol>(n, "test stub");
}

TEST(ProtocolFactory, DuplicateAndNullRegistrationFatal)
{
    ProtocolFactory pf;
    pf.add(stubProtocol("stub"));
    EXPECT_TRUE(pf.contains("stub"));
    EXPECT_THROW(pf.add(stubProtocol("stub")), FatalError);
    EXPECT_THROW(pf.add(nullptr), FatalError);
    // An empty table has no edges and answers false to both hooks.
    const CoherenceProtocol &stub = pf.get("stub");
    EXPECT_FALSE(stub.ownerKeepsDirtyOnGetS());
    EXPECT_FALSE(stub.updateBased());
    EXPECT_THROW(stub.transition(PState::M, PEvent::FwdGetS),
                 FatalError);
}

// --------------------------------- transition tables / policy hooks

TEST(ProtocolTables, PolicyHooksDistinguishFamilies)
{
    const ProtocolFactory &pf = ProtocolFactory::global();
    EXPECT_TRUE(pf.get("spm-hybrid").ownerKeepsDirtyOnGetS());
    EXPECT_TRUE(pf.get("moesi").ownerKeepsDirtyOnGetS());
    EXPECT_FALSE(pf.get("mesi").ownerKeepsDirtyOnGetS());
    EXPECT_FALSE(pf.get("spm-hybrid").updateBased());
    EXPECT_FALSE(pf.get("mesi").updateBased());
    EXPECT_TRUE(pf.get("dragon").updateBased());
}

TEST(ProtocolTables, HitAndRequestEdges)
{
    const ProtocolFactory &pf = ProtocolFactory::global();
    auto hits = [](const CoherenceProtocol &p, PState s, PEvent e) {
        return p.transition(s, e).has(PAction::Hit);
    };
    auto put = [](const CoherenceProtocol &p, PState s) {
        return p.transition(s, PEvent::Replace).actions[0];
    };
    for (const std::string &n : pf.names()) {
        const CoherenceProtocol &p = pf.get(n);
        // Loads hit in every valid state and keep it; stores hit in E
        // and M and leave the line in M.
        for (PState s : {PState::S, PState::E, PState::O, PState::M}) {
            if (s == PState::O && !p.ownerKeepsDirtyOnGetS())
                continue;  // no Owned rows in MESI-family tables
            EXPECT_TRUE(hits(p, s, PEvent::Load))
                << n << " " << pstateName(s);
            EXPECT_EQ(p.transition(s, PEvent::Load).next, s) << n;
        }
        EXPECT_FALSE(hits(p, PState::I, PEvent::Load)) << n;
        for (PState s : {PState::E, PState::M}) {
            EXPECT_TRUE(hits(p, s, PEvent::Store)) << n;
            EXPECT_EQ(p.transition(s, PEvent::Store).next, PState::M)
                << n;
        }
        EXPECT_FALSE(hits(p, PState::I, PEvent::Store)) << n;
        EXPECT_FALSE(hits(p, PState::S, PEvent::Store)) << n;
        // Replacement writes back exactly the dirty states.
        EXPECT_EQ(put(p, PState::M), PAction::PutDirty) << n;
        EXPECT_EQ(put(p, PState::E), PAction::PutClean) << n;
        EXPECT_EQ(put(p, PState::S), PAction::PutShared) << n;
    }
    // Invalidation-based stores upgrade with GetX; Dragon ships the
    // store to the directory instead.
    auto issues = [&](const char *n, PState s, PAction a) {
        return pf.get(n).transition(s, PEvent::Store).has(a);
    };
    EXPECT_TRUE(issues("spm-hybrid", PState::S, PAction::IssueGetX));
    EXPECT_TRUE(issues("spm-hybrid", PState::O, PAction::IssueGetX));
    EXPECT_TRUE(issues("mesi", PState::I, PAction::IssueGetX));
    EXPECT_TRUE(issues("dragon", PState::I, PAction::IssueUpdX));
    EXPECT_TRUE(issues("dragon", PState::S, PAction::IssueUpdX));
}

TEST(ProtocolTables, OwnedStateOnlyInMoesiFamilies)
{
    const ProtocolFactory &pf = ProtocolFactory::global();
    // A dirty owner answering a remote read keeps the line in MOESI
    // (M -> O) and downgrades to S everywhere else.
    auto after_fwd_gets = [&](const char *n) {
        return pf.get(n).transition(PState::M, PEvent::FwdGetS).next;
    };
    EXPECT_EQ(after_fwd_gets("spm-hybrid"), PState::O);
    EXPECT_EQ(after_fwd_gets("moesi"), PState::O);
    EXPECT_EQ(after_fwd_gets("mesi"), PState::S);
    EXPECT_EQ(after_fwd_gets("dragon"), PState::S);
    // O is dirty: replacing it writes the line back.
    EXPECT_TRUE(pf.get("spm-hybrid")
                    .transition(PState::O, PEvent::Replace)
                    .has(PAction::PutDirty));
    // MESI has no Owned rows at all: touching one is fatal.
    EXPECT_THROW(pf.get("mesi").transition(PState::O, PEvent::Load),
                 FatalError);
    EXPECT_THROW(pf.get("mesi").transition(PState::O, PEvent::Replace),
                 FatalError);
    // Only Dragon accepts directory-pushed updates in S.
    EXPECT_TRUE(pf.get("dragon")
                    .transition(PState::S, PEvent::Update)
                    .has(PAction::Apply));
    EXPECT_THROW(
        pf.get("spm-hybrid").transition(PState::S, PEvent::Update),
        FatalError);
}

// ------------------------------------------- experiment threading

TEST(ProtocolSpec, ValidationRejectsUnknownProtocol)
{
    ExperimentSpec s;
    s.workload = "CG";
    s.cores = 4;
    s.protocol = "mosi";
    const std::vector<std::string> problems =
        validateExperiment(s, WorkloadRegistry::global());
    ASSERT_FALSE(problems.empty());
    bool mentioned = false;
    for (const std::string &p : problems)
        mentioned |= p.find("mosi") != std::string::npos;
    EXPECT_TRUE(mentioned);
    EXPECT_THROW(
        ExperimentBuilder().workload("CG").cores(4).protocol("mosi")
            .spec(),
        FatalError);
}

TEST(ProtocolSpec, LabelShowsOnlyNonDefaultProtocol)
{
    const ExperimentSpec def = ExperimentBuilder()
                                   .workload("CG")
                                   .cores(8)
                                   .spec();
    EXPECT_EQ(def.label().find("spm-hybrid"), std::string::npos);
    const ExperimentSpec mesi = ExperimentBuilder()
                                    .workload("CG")
                                    .cores(8)
                                    .protocol("mesi")
                                    .spec();
    EXPECT_NE(mesi.label().find("/mesi/"), std::string::npos);
    EXPECT_EQ(mesi.resolvedParams().protocol, "mesi");
    EXPECT_EQ(def.resolvedParams().protocol, "spm-hybrid");
}

TEST(ProtocolSpec, ExplicitDefaultMatchesImplicitDefault)
{
    // Naming the default protocol explicitly must not change one bit
    // of the result (same machine, same run).
    const ExperimentResult a =
        ExperimentBuilder().workload("CG").cores(4).scale(0.2).run();
    const ExperimentResult b = ExperimentBuilder()
                                   .workload("CG")
                                   .cores(4)
                                   .scale(0.2)
                                   .protocol("spm-hybrid")
                                   .run();
    EXPECT_EQ(a.results.cycles, b.results.cycles);
    EXPECT_EQ(a.results.traffic.totalPackets(),
              b.results.traffic.totalPackets());
    EXPECT_EQ(a.results.counters.instructions,
              b.results.counters.instructions);
    EXPECT_EQ(a.spec.label(), b.spec.label());
}

/**
 * Byte-identity against the checked-in golden: replaying the exact
 * cg8_smoke.json invocation through the CLI + sweep + JSON sink
 * must reproduce the golden file byte for byte, proving the
 * protocol refactor left the default path untouched. (ci.sh checks
 * the same for all three goldens through the spmcoh_run binary.)
 */
TEST(ProtocolSpec, DefaultProtocolReproducesGoldenByteIdentical)
{
    std::ifstream golden("../tests/golden/cg8_smoke.json",
                         std::ios::binary);
    if (!golden)
        golden.open("tests/golden/cg8_smoke.json", std::ios::binary);
    if (!golden)
        GTEST_SKIP() << "golden file not reachable from test cwd";
    std::ostringstream want;
    want << golden.rdbuf();

    const CliOptions opt = parseCli(
        {"--workload=CG", "--cores=8", "--format=json", "--no-stats"});
    std::ostringstream got;
    SweepRunner runner(WorkloadRegistry::global());
    const auto sink =
        makeResultSink(opt.format, got, opt.withStats);
    runner.run(opt.sweep, sink.get(), opt.effectiveTitle());
    EXPECT_EQ(got.str(), want.str());
}

} // namespace
} // namespace spmcoh
