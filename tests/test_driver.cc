/**
 * @file
 * Tests for the experiment driver API: builder validation, workload
 * registry lookup, sweep expansion with prepared-program caching,
 * and a JSON export round-trip checked against the RunResults the
 * run produced.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "driver/Driver.hh"
#include "workloads/NasBenchmarks.hh"

namespace spmcoh
{
namespace
{

// ---------------------------------------------------------- registry

TEST(WorkloadRegistry, GlobalKnowsAllNasBenchmarks)
{
    WorkloadRegistry &reg = WorkloadRegistry::global();
    for (NasBench b : allNasBenchmarks())
        EXPECT_TRUE(reg.contains(nasBenchName(b)));
    const ProgramDecl prog = reg.build("CG", 4, 0.25);
    EXPECT_FALSE(prog.kernels.empty());
}

TEST(WorkloadRegistry, GlobalCarriesTheKernelWorkloads)
{
    WorkloadRegistry &reg = WorkloadRegistry::global();
    EXPECT_GE(reg.names().size(), 10u);
    for (const char *w : {"stencil", "gather", "pchase",
                          "reduction", "transpose"}) {
        ASSERT_TRUE(reg.contains(w)) << w;
        // Every registered workload is buildable and runnable with
        // spec-default parameters at a small machine size.
        const ProgramDecl prog = reg.build(w, 4, 0.25);
        EXPECT_FALSE(prog.kernels.empty()) << w;
    }
}

TEST(WorkloadRegistry, EveryWorkloadRunsOnTwelveCores)
{
    // Twelve cores split a thread group's hot windows into sizes that
    // are not powers of two; every access must still stay inside its
    // line in every mode.
    for (const std::string &w : WorkloadRegistry::global().names())
        for (SystemMode m : {SystemMode::CacheOnly, SystemMode::HybridIdeal,
                             SystemMode::HybridProto})
            EXPECT_NO_THROW(ExperimentBuilder()
                                .workload(w)
                                .mode(m)
                                .cores(12)
                                .scale(0.25)
                                .run())
                << w << " " << systemModeName(m);
}

TEST(WorkloadRegistry, UnknownNameListsKnownWorkloads)
{
    try {
        WorkloadRegistry::global().build("bogus", 4);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos);
        EXPECT_NE(msg.find("CG"), std::string::npos);
        EXPECT_NE(msg.find("SP"), std::string::npos);
    }
}

TEST(WorkloadRegistry, RejectsDuplicatesAndEmptyNames)
{
    WorkloadRegistry reg;
    auto factory = [](std::uint32_t, double, const WorkloadParams &) {
        return ProgramDecl{};
    };
    reg.add({"w", "", {}, factory});
    EXPECT_THROW(reg.add({"w", "", {}, factory}), FatalError);
    EXPECT_THROW(reg.add({"", "", {}, factory}), FatalError);
    EXPECT_THROW(reg.add({"null", "", {}, nullptr}), FatalError);
}

// ----------------------------------------------------------- builder

TEST(ExperimentBuilder, RejectsUnknownWorkload)
{
    try {
        ExperimentBuilder().workload("nope").spec();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload 'nope'"),
                  std::string::npos);
        EXPECT_NE(msg.find("CG"), std::string::npos);
    }
}

TEST(ExperimentBuilder, RejectsBadCoreCountsAndScale)
{
    try {
        ExperimentBuilder()
            .workload("CG")
            .cores(0)
            .scale(-1.0)
            .spec();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("core count"), std::string::npos);
        EXPECT_NE(msg.find("scale"), std::string::npos);
    }
    EXPECT_THROW(
        ExperimentBuilder().workload("CG").cores(100000).spec(),
        FatalError);
}

TEST(ExperimentSpec, BoundsFilterEntriesByTheFilterDir)
{
    // Four cores own four 64-entry FilterDir slices: 256 bases.
    ExperimentSpec s;
    s.workload = "CG";
    s.cores = 4;
    s.filterEntries = 256;
    EXPECT_TRUE(validateExperiment(s, WorkloadRegistry::global()).empty());
    for (std::uint32_t bad : {0u, 257u, 4294967295u}) {
        s.filterEntries = bad;
        const auto errs =
            validateExperiment(s, WorkloadRegistry::global());
        ASSERT_EQ(errs.size(), 1u) << bad;
        EXPECT_NE(errs[0].find("filter entries must be in [1, 256]"),
                  std::string::npos)
            << errs[0];
    }
}

TEST(ExperimentBuilder, ResolvesModeAndCoresIntoParams)
{
    const ExperimentSpec spec = ExperimentBuilder()
                                    .workload("CG")
                                    .mode(SystemMode::CacheOnly)
                                    .cores(4)
                                    .scale(0.25)
                                    .spec();
    const SystemParams p = spec.resolvedParams();
    EXPECT_EQ(p.mode, SystemMode::CacheOnly);
    EXPECT_EQ(p.numCores, 4u);
    // Sec. 5.4 fairness rule: cache-only gets the 64KB L1D.
    EXPECT_EQ(p.l1d.sizeBytes, 64u * 1024u);
    EXPECT_EQ(spec.label(), "CG/cache/4c/x0.25");
}

TEST(ExperimentSpec, AblationKnobsApplyOnTopOfTheMode)
{
    ExperimentSpec spec;
    spec.workload = "CG";
    spec.cores = 4;
    EXPECT_EQ(spec.variant(), "");
    const SystemParams base = spec.resolvedParams();
    spec.filterEntries = 16;
    spec.prefetcher = false;
    const SystemParams p = spec.resolvedParams();
    EXPECT_EQ(p.coh.filterEntries, 16u);
    EXPECT_FALSE(p.l1d.prefetcher.enabled);
    EXPECT_EQ(spec.variant(), "filter16+pf-off");
    EXPECT_EQ(spec.label(), "CG/hybrid-proto/4c/x1.00+filter16+pf-off");
    // Everything else is the mode's Table 1 machine.
    EXPECT_TRUE(base.l1d.prefetcher.enabled);
    EXPECT_EQ(p.l1d.sizeBytes, base.l1d.sizeBytes);
    EXPECT_EQ(p.spmBytes, base.spmBytes);
    EXPECT_EQ(p.coh.spmDirEntries, base.coh.spmDirEntries);
}

// ------------------------------------------------------------- sweep

TEST(SweepRunner, ExpandsCartesianProduct)
{
    SweepSpec sweep;
    sweep.workloads = {"CG", "IS"};
    sweep.modes = {SystemMode::CacheOnly, SystemMode::HybridProto};
    sweep.coreCounts = {4, 16};
    sweep.scales = {0.25};
    sweep.filterEntries = {4, 8, 16};
    sweep.prefetcher = {true, false};
    SweepRunner runner;
    const auto specs = runner.expand(sweep);
    EXPECT_EQ(specs.size(), 2u * 2u * 2u * 1u * 3u * 2u);
    // Workload-major order; filter entries, then the prefetcher,
    // vary fastest.
    EXPECT_EQ(specs[0].workload, "CG");
    EXPECT_EQ(specs[0].variant(), "filter4+pf-on");
    EXPECT_EQ(specs[1].variant(), "filter4+pf-off");
    EXPECT_EQ(specs[2].variant(), "filter8+pf-on");
    EXPECT_EQ(specs[2].resolvedParams().coh.filterEntries, 8u);
    EXPECT_TRUE(specs[2].resolvedParams().l1d.prefetcher.enabled);
    EXPECT_EQ(specs.back().workload, "IS");
    EXPECT_EQ(specs.back().cores, 16u);
}

TEST(SweepRunner, RejectsInvalidPointsWithContext)
{
    SweepSpec sweep;
    sweep.workloads = {"CG", "wrong"};
    sweep.coreCounts = {4};
    sweep.scales = {0.25};
    try {
        SweepRunner().expand(sweep);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("wrong"),
                  std::string::npos);
    }
}

TEST(SweepRunner, CachesPreparedProgramsAcrossModes)
{
    SweepSpec sweep;
    sweep.workloads = {"CG"};
    sweep.modes = {SystemMode::CacheOnly, SystemMode::HybridIdeal,
                   SystemMode::HybridProto};
    sweep.coreCounts = {4};
    sweep.scales = {0.25};
    SweepRunner runner;
    const auto results = runner.run(sweep);
    ASSERT_EQ(results.size(), 3u);
    // All three modes share the spmBytes default, so one compile
    // serves every point.
    EXPECT_EQ(runner.cacheStats().compiles, 1u);
    EXPECT_EQ(runner.cacheStats().hits, 2u);
    for (const ExperimentResult &r : results)
        EXPECT_GT(r.results.cycles, 0u);
    // Hybrid runs match a direct builder run bit for bit
    // (determinism through the cache path).
    const ExperimentResult direct = ExperimentBuilder()
                                        .workload("CG")
                                        .mode(SystemMode::HybridProto)
                                        .cores(4)
                                        .scale(0.25)
                                        .run();
    const ExperimentResult &swept =
        findResult(results, "CG", SystemMode::HybridProto);
    EXPECT_EQ(direct.results.cycles, swept.results.cycles);
    EXPECT_EQ(direct.results.traffic.totalPackets(),
              swept.results.traffic.totalPackets());
}

// ------------------------------------------------- JSON round-trip

/**
 * Minimal JSON value parser, just enough to verify the JsonSink
 * output: objects, arrays, strings, numbers, booleans, null.
 */
struct JsonValue
{
    enum class Kind { Object, Array, String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
    std::string str;
    double num = 0.0;
    bool boolean = false;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos != s.size())
            throw std::runtime_error("trailing JSON content");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= s.size())
            throw std::runtime_error("unexpected end of JSON");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' got '" + s[pos] + "'");
        ++pos;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't': case 'f': return parseBool();
          case 'n': return parseNull();
          default:  return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') { ++pos; return v; }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.object.emplace(key.str, parseValue());
            if (peek() == ',') { ++pos; continue; }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') { ++pos; return v; }
        while (true) {
            v.array.push_back(parseValue());
            if (peek() == ',') { ++pos; continue; }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    break;
                switch (s[pos]) {
                  case 'n': v.str += '\n'; break;
                  case 't': v.str += '\t'; break;
                  case 'r': v.str += '\r'; break;
                  case 'u': pos += 4; v.str += '?'; break;
                  default:  v.str += s[pos];
                }
            } else {
                v.str += s[pos];
            }
            ++pos;
        }
        if (pos >= s.size())
            throw std::runtime_error("unterminated string");
        ++pos;
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
        } else if (s.compare(pos, 5, "false") == 0) {
            v.boolean = false;
            pos += 5;
        } else {
            throw std::runtime_error("bad literal");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        if (s.compare(pos, 4, "null") != 0)
            throw std::runtime_error("bad literal");
        pos += 4;
        JsonValue v;
        v.kind = JsonValue::Kind::Null;
        return v;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            ++pos;
        if (pos == start)
            throw std::runtime_error("bad number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.num = std::stod(s.substr(start, pos - start));
        return v;
    }

    const std::string &s;
    std::size_t pos = 0;
};

TEST(ResultSink, FormatNames)
{
    EXPECT_EQ(resultFormatFromName("table"), ResultFormat::Table);
    EXPECT_EQ(resultFormatFromName("csv"), ResultFormat::Csv);
    EXPECT_EQ(resultFormatFromName("json"), ResultFormat::Json);
    EXPECT_FALSE(resultFormatFromName("xml").has_value());
}

TEST(ResultSink, JsonRoundTripMatchesRunResults)
{
    const ExperimentResult res = ExperimentBuilder()
                                     .workload("CG")
                                     .mode(SystemMode::HybridProto)
                                     .cores(4)
                                     .scale(0.25)
                                     .run();

    std::ostringstream os;
    auto sink = makeResultSink(ResultFormat::Json, os);
    sink->begin("round trip");
    sink->add(res);
    sink->note("a note");
    sink->end();

    const JsonValue doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc.at("title").str, "round trip");
    ASSERT_EQ(doc.at("results").array.size(), 1u);
    ASSERT_EQ(doc.at("notes").array.size(), 1u);
    EXPECT_EQ(doc.at("notes").array[0].str, "a note");

    const JsonValue &r = doc.at("results").array[0];
    const RunResults &rr = res.results;

    EXPECT_EQ(r.at("spec").at("workload").str, "CG");
    EXPECT_EQ(r.at("spec").at("mode").str, "hybrid-proto");
    EXPECT_EQ(r.at("spec").at("cores").num, 4.0);
    EXPECT_EQ(r.at("params").at("spmBytes").num,
              double(res.params.spmBytes));

    EXPECT_EQ(r.at("cycles").num, double(rr.cycles));
    EXPECT_EQ(r.at("phaseCycles").at("control").num,
              double(rr.phaseCycles[0]));
    EXPECT_EQ(r.at("phaseCycles").at("sync").num,
              double(rr.phaseCycles[1]));
    EXPECT_EQ(r.at("phaseCycles").at("work").num,
              double(rr.phaseCycles[2]));

    EXPECT_EQ(r.at("traffic").at("totalPackets").num,
              double(rr.traffic.totalPackets()));
    EXPECT_EQ(r.at("traffic").at("classes").at("DMA")
                  .at("packets").num,
              double(rr.traffic.classPackets(TrafficClass::Dma)));

    EXPECT_NEAR(r.at("energy").at("total").num, rr.energy.total(),
                1e-6);
    EXPECT_NEAR(r.at("energy").at("spms").num, rr.energy.spms, 1e-9);

    EXPECT_EQ(r.at("filter").at("hits").num, double(rr.filterHits));
    EXPECT_EQ(r.at("filter").at("misses").num,
              double(rr.filterMisses));
    EXPECT_NEAR(r.at("filter").at("hitRatio").num, rr.filterHitRatio,
                1e-12);

    EXPECT_EQ(r.at("counters").at("instructions").num,
              double(rr.counters.instructions));
    EXPECT_EQ(r.at("counters").at("spmAccesses").num,
              double(rr.counters.spmAccesses));
    EXPECT_EQ(r.at("counters").at("dmaLines").num,
              double(rr.counters.dmaLines));

    // Per-component stats snapshot made it through, including the
    // DMA line-latency histogram.
    const JsonValue &stats = r.at("stats");
    EXPECT_FALSE(stats.object.empty());
    const JsonValue &dmac = stats.at("dmac");
    EXPECT_GT(dmac.at("counters").at("getLines").num, 0.0);
    const JsonValue &lat =
        dmac.at("histograms").at("lineLatency");
    EXPECT_GT(lat.at("samples").num, 0.0);
    EXPECT_EQ(lat.at("buckets").array.size(),
              lat.at("edges").array.size() + 1);
}

TEST(ResultSink, CsvHasHeaderAndOneRowPerResult)
{
    const ExperimentResult res = ExperimentBuilder()
                                     .workload("EP")
                                     .mode(SystemMode::CacheOnly)
                                     .cores(4)
                                     .scale(0.25)
                                     .run();
    std::ostringstream os;
    auto sink = makeResultSink(ResultFormat::Csv, os);
    sink->begin("csv");
    sink->add(res);
    sink->end();

    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "# csv");
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_NE(line.find("workload,mode,protocol,cores"), std::string::npos);
    const std::size_t header_cols =
        static_cast<std::size_t>(
            std::count(line.begin(), line.end(), ',')) + 1;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_NE(line.find("EP,cache,spm-hybrid,4,"), std::string::npos);
    const std::size_t row_cols =
        static_cast<std::size_t>(
            std::count(line.begin(), line.end(), ',')) + 1;
    EXPECT_EQ(header_cols, row_cols);
}

} // namespace
} // namespace spmcoh
