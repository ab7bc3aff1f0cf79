/**
 * @file
 * Benchmark driver: runs one named benchmark workload on the 64-core
 * Table 1 machine through the public experiment API, timing every
 * call, until a time budget is spent.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S
 *   perfbench --workload=NAME --seed=N --reference
 *
 * One experiment is WorkloadRegistry::build -> prepareProgram ->
 * System::System -> makeSources -> System::run -> results +
 * snapshotStats -> JSON ResultSink, each call wrapped in its own
 * span. After the experiment the driver reads every line of every
 * program array coherently (a DmaRead at the line's home directory
 * slice) and hashes the image; run.py compares that digest with the
 * image of the same program and seed on the other system mode, which
 * --reference prints. Between experiments the driver times a fixed
 * host probe (HostProbe), which run.py uses to take the host's speed
 * of the moment out of the experiment's times.
 *
 * Output is one JSON object per line: one per experiment, the full
 * serialized result of the first experiment (the simulated
 * fingerprint), and the process's peak resident set at the end.
 */

#include <sys/resource.h>
#ifdef PERFBENCH_GPROF
// glibc's switch for -pg sampling and arc counting; its headers do not
// declare it.
extern "C" void moncontrol(int mode);
#endif

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/Driver.hh"
#include "driver/Json.hh"

using namespace spmcoh;

namespace
{

/** One benchmark workload: a registry workload on one system mode. */
struct BenchWorkload
{
    const char *name;
    const char *workload;
    SystemMode mode;
    /** Mode whose final memory image must match this one's. */
    SystemMode refMode;
};

constexpr std::uint32_t benchCores = 64;

const BenchWorkload benchWorkloads[] = {
    {"cg-hybrid", "CG", SystemMode::HybridProto, SystemMode::CacheOnly},
    {"pipeline-hybrid", "pipeline", SystemMode::HybridProto,
     SystemMode::CacheOnly},
    {"contend-cache", "contend", SystemMode::CacheOnly,
     SystemMode::HybridProto},
};

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** FNV-1a, 64-bit. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/** Stops gprof sampling for its lifetime (in the -pg build only). */
struct ProfilePause
{
#ifdef PERFBENCH_GPROF
    ProfilePause() { moncontrol(0); }
    ~ProfilePause() { moncontrol(1); }
    ProfilePause(const ProfilePause &) = delete;
    ProfilePause &operator=(const ProfilePause &) = delete;
#endif
};

/**
 * A fixed piece of host work, timed between experiments. It is part of
 * this benchmark, not of the simulator, so a change to the simulator
 * never changes it. Its time follows the host's speed of the moment:
 * a random walk over a 64 KiB ring (past L1, inside L2) and a burst
 * of hash-map inserts, the two kernels tried that slowed most like the
 * simulator when other tenants loaded the host (see README.md). run.py
 * scales every host time of an experiment by the probe's reference
 * time over the mean of the probes just before and just after it.
 */
class HostProbe
{
  public:
    HostProbe() : next_(ringEntries)
    {
        // One random cycle through every entry, so the walk visits the
        // whole ring in an order the prefetcher cannot follow.
        std::vector<std::uint32_t> order(ringEntries);
        for (std::uint32_t i = 0; i < ringEntries; ++i)
            order[i] = i;
        std::uint64_t s = 1;
        for (std::uint32_t i = ringEntries - 1; i > 1; --i) {
            s = lcg(s);
            std::swap(order[i], order[1 + (s >> 33) % i]);
        }
        for (std::uint32_t i = 0; i < ringEntries; ++i)
            next_[order[i]] = order[(i + 1) % ringEntries];
    }

    /** Seconds one pass of the probe took. */
    double
    run()
    {
        [[maybe_unused]] const ProfilePause pause;
        const auto t0 = Clock::now();
        std::uint32_t p = 0;
        for (std::uint32_t i = 0; i < walkSteps; ++i)
            p = next_[p];
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        std::uint64_t k = p;
        for (std::uint32_t i = 0; i < mapInserts; ++i) {
            k = lcg(k);
            map[k >> 44] += i;
        }
        sink_ = map.size();
        return secondsBetween(t0, Clock::now());
    }

  private:
    static constexpr std::uint32_t ringEntries = 64 * 1024 / 4;
    static constexpr std::uint32_t walkSteps = 1000000;
    static constexpr std::uint32_t mapInserts = 60000;

    static std::uint64_t
    lcg(std::uint64_t x)
    {
        return x * 6364136223846793005ull + 1442695040888963407ull;
    }

    std::vector<std::uint32_t> next_;
    volatile std::uint64_t sink_ = 0;
};

/**
 * Digest of every line of every array of @p prog after a finished
 * run, each read coherently by a DmaRead at its home slice (the
 * directory snapshots the freshest copy, wherever it lives). Lines
 * are requested in batches from tile 0's DMAC endpoint. The check is
 * not part of the experiment, so the traced build does not profile it.
 */
std::string
imageDigest(System &sys, const ProgramDecl &prog,
            const PreparedProgram &pp)
{
    [[maybe_unused]] const ProfilePause pause;
    constexpr std::size_t batch = 256;
    std::unordered_map<Addr, LineData> got;
    sys.memNet().setHandler(Endpoint::Dmac, 0, [&](const Message &m) {
        if (m.type == MsgType::DmaReadResp)
            got[m.addr] = m.data;
    });
    Fnv f;
    for (const ArrayDecl &a : prog.arrays) {
        const Addr base = pp.layout.baseOf(a.id);
        const Addr first = lineAlign(base);
        const Addr end = base + a.bytes;
        for (Addr lo = first; lo < end; lo += batch * lineBytes) {
            got.clear();
            for (Addr line = lo;
                 line < end && line < lo + batch * lineBytes;
                 line += lineBytes) {
                Message m;
                m.type = MsgType::DmaRead;
                m.addr = line;
                m.requestor = 0;
                m.cls = TrafficClass::Dma;
                sys.memNet().send(0, Endpoint::Dir,
                                  sys.memNet().homeSlice(line), m,
                                  TrafficClass::Dma);
            }
            sys.events().run();
            for (Addr line = lo;
                 line < end && line < lo + batch * lineBytes;
                 line += lineBytes) {
                auto it = got.find(line);
                if (it == got.end())
                    fatal("perfbench: no DmaRead response for line " +
                          std::to_string(line));
                f.add(&line, sizeof(line));
                f.add(it->second.bytes.data(), lineBytes);
            }
        }
    }
    return f.hex();
}

/** Times of one experiment's spans, in seconds. */
struct Spans
{
    double build = 0, prepare = 0, construct = 0, sources = 0;
    double run = 0, collect = 0, serialize = 0;
};

struct Outcome
{
    Spans t;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    std::string json;    ///< serialized ResultSink output
    std::string digest;  ///< coherent final memory image
};

/** Run one whole experiment of @p bw on @p mode, seeded with @p seed. */
Outcome
runOnce(const BenchWorkload &bw, SystemMode mode, std::uint64_t seed)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    const ExperimentSpec spec = ExperimentBuilder(reg)
                                    .workload(bw.workload)
                                    .mode(mode)
                                    .cores(benchCores)
                                    .spec();
    const SystemParams sp = spec.resolvedParams();

    Outcome o;
    const auto t0 = Clock::now();
    ProgramDecl prog =
        reg.build(spec.workload, spec.cores, spec.scale, spec.wparams);
    prog.seed = seed;
    const auto t1 = Clock::now();
    const PreparedProgram pp =
        prepareProgram(prog, spec.cores, sp.spmBytes);
    const auto t2 = Clock::now();
    System sys(sp);
    const auto t3 = Clock::now();
    auto sources = makeSources(pp, spec.cores, mode, sp.spmBytes);
    const auto t4 = Clock::now();
    if (!sys.run(std::move(sources)))
        fatal("experiment " + spec.label() +
              ": simulation did not complete (deadlock guard)");
    const auto t5 = Clock::now();
    o.events = sys.events().executed();
    ExperimentResult r;
    r.spec = spec;
    r.params = sp;
    r.results = sys.results();
    r.stats = snapshotStats(sys);
    const auto t6 = Clock::now();
    std::ostringstream os;
    {
        auto sink = makeResultSink(ResultFormat::Json, os);
        sink->begin(bw.name);
        sink->add(r);
        sink->end();
    }
    o.json = os.str();
    const auto t7 = Clock::now();

    o.t = Spans{secondsBetween(t0, t1), secondsBetween(t1, t2),
                secondsBetween(t2, t3), secondsBetween(t3, t4),
                secondsBetween(t4, t5), secondsBetween(t5, t6),
                secondsBetween(t6, t7)};
    o.cycles = r.results.cycles;
    o.instructions = r.results.counters.instructions;
    o.digest = imageDigest(sys, prog, pp);
    return o;
}

void
printExperiment(std::uint64_t iter, const Outcome &o, double probeS)
{
    Fnv fp;
    fp.add(o.json.data(), o.json.size());
    fp.add(&o.events, sizeof(o.events));
    JsonWriter w(std::cout);
    w.beginObject();
    w.key("iter").value(iter);
    w.key("ok").value(true);
    w.key("probe_s").value(probeS);
    w.key("spans").beginObject();
    w.key("workloads.build_s").value(o.t.build);
    w.key("compiler.prepare_s").value(o.t.prepare);
    w.key("system.construct_s").value(o.t.construct);
    w.key("runtime.sources_s").value(o.t.sources);
    w.key("system.run_s").value(o.t.run);
    w.key("driver.collect_s").value(o.t.collect);
    w.key("driver.serialize_s").value(o.t.serialize);
    w.endObject();
    w.key("cycles").value(o.cycles);
    w.key("instructions").value(o.instructions);
    w.key("events").value(o.events);
    w.key("fingerprint_hash").value(fp.hex());
    w.key("digest").value(o.digest);
    w.endObject();
    std::cout << '\n';
}

void
printFailure(std::uint64_t iter, const std::string &what)
{
    JsonWriter w(std::cout);
    w.beginObject();
    w.key("iter").value(iter);
    w.key("ok").value(false);
    w.key("error").value(what);
    w.endObject();
    std::cout << '\n';
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=N "
                 "(--seconds=S | --reference)\n"
                 "workloads:", argv0);
    for (const BenchWorkload &bw : benchWorkloads)
        std::fprintf(stderr, " %s", bw.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchWorkload *bw = nullptr;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool reference = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--workload=", 11) == 0) {
            for (const BenchWorkload &w : benchWorkloads)
                if (std::strcmp(arg + 11, w.name) == 0)
                    bw = &w;
            if (!bw) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             arg + 11);
                return usage(argv[0]);
            }
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            seed = std::strtoull(arg + 7, nullptr, 10);
        } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
            seconds = std::strtod(arg + 10, nullptr);
        } else if (std::strcmp(arg, "--reference") == 0) {
            reference = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            return usage(argv[0]);
        }
    }
    if (!bw || (!reference && !(seconds > 0.0)))
        return usage(argv[0]);

    if (reference) {
        try {
            const Outcome o = runOnce(*bw, bw->refMode, seed);
            std::cout << "{\"reference_digest\":\"" << o.digest
                      << "\"}\n";
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    // The first experiment warms the allocator and page state every
    // later one reuses: run.py checks it like the rest but leaves its
    // times out of the statistics. Each experiment is bracketed by two
    // passes of the host probe; the record carries their mean.
    HostProbe probe;
    double probeBefore = probe.run();
    const auto start = Clock::now();
    std::uint64_t iter = 0;
    do {
        try {
            const Outcome o = runOnce(*bw, bw->mode, seed);
            const double probeAfter = probe.run();
            if (iter == 0) {
                // The sink ends its document with a newline; this
                // record must stay on one line.
                std::string doc = o.json;
                while (!doc.empty() && doc.back() == '\n')
                    doc.pop_back();
                std::cout << "{\"events\":" << o.events
                          << ",\"fingerprint\":" << doc << "}\n";
            }
            printExperiment(iter, o, (probeBefore + probeAfter) / 2);
            probeBefore = probeAfter;
        } catch (const std::exception &e) {
            printFailure(iter, e.what());
        }
        ++iter;
    } while (secondsBetween(start, Clock::now()) < seconds);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"peak_rss_kb\":" << ru.ru_maxrss << "}\n";
    return 0;
}
