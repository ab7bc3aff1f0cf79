/**
 * @file
 * Table / CSV / JSON result sink implementations.
 */

#include "driver/ResultSink.hh"

#include <cstdio>

#include "driver/Json.hh"
#include "noc/Traffic.hh"
#include "protocols/ProtocolFactory.hh"

namespace spmcoh
{

std::optional<ResultFormat>
resultFormatFromName(const std::string &name)
{
    if (name == "table")
        return ResultFormat::Table;
    if (name == "csv")
        return ResultFormat::Csv;
    if (name == "json")
        return ResultFormat::Json;
    return std::nullopt;
}

namespace
{

// ------------------------------------------------------------ table

class TableSink final : public ResultSink
{
  public:
    explicit TableSink(std::ostream &os_) : os(os_) {}

    void
    begin(const std::string &title) override
    {
        if (!title.empty())
            os << "\n==== " << title << " ====\n";
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%-34s %12s %8s %8s %8s %10s %10s %8s\n",
                      "experiment", "cycles", "ctrl%", "sync%",
                      "work%", "packets", "energy-uJ", "filter%");
        os << buf;
    }

    void
    add(const ExperimentResult &r) override
    {
        const RunResults &rr = r.results;
        const double ph = double(rr.phaseCycles[0]) +
                          double(rr.phaseCycles[1]) +
                          double(rr.phaseCycles[2]);
        const double div = ph > 0 ? ph : 1.0;
        char buf[200];
        std::snprintf(
            buf, sizeof(buf),
            "%-34s %12llu %7.1f%% %7.1f%% %7.1f%% %10llu %10.1f "
            "%7.1f%%\n",
            r.spec.label().c_str(),
            static_cast<unsigned long long>(rr.cycles),
            100.0 * double(rr.phaseCycles[0]) / div,
            100.0 * double(rr.phaseCycles[1]) / div,
            100.0 * double(rr.phaseCycles[2]) / div,
            static_cast<unsigned long long>(
                rr.traffic.totalPackets()),
            rr.energy.total() / 1000.0,
            100.0 * rr.filterHitRatio);
        os << buf;
    }

    void
    note(const std::string &text) override
    {
        os << "note: " << text << '\n';
    }

    void end() override { os.flush(); }

  private:
    std::ostream &os;
};

// -------------------------------------------------------------- csv

class CsvSink final : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os_) : os(os_) {}

    void
    begin(const std::string &title) override
    {
        if (!title.empty())
            os << "# " << title << '\n';
        os << "workload,mode,protocol,cores,chips,farMemLat,scale,"
              "wparams,variant,"
              "cycles,controlCycles,syncCycles,workCycles";
        for (std::size_t c = 0; c < numTrafficClasses; ++c)
            os << ',' << trafficClassName(
                static_cast<TrafficClass>(c)) << "Packets";
        os << ",totalPackets,flitHops,"
              "energyCpus,energyCaches,energyNoc,energyOthers,"
              "energySpms,energyCohProt,energyTotal,"
              "filterHits,filterMisses,filterHitRatio,"
              "filterInvalidations,squashes,localSpmServed,"
              "remoteSpmServed,instructions,spmAccesses,dmaLines,"
              "guardedAccesses\n";
    }

    void
    add(const ExperimentResult &r) override
    {
        const RunResults &rr = r.results;
        // The k=v pairs are ';'-separated in CSV ("grids=7;hotKB=16")
        // so the cell never splits the row.
        std::string wp = r.spec.wparams.render();
        for (char &c : wp)
            if (c == ',')
                c = ';';
        os << r.spec.workload << ','
           << systemModeName(r.spec.mode) << ','
           << r.spec.protocol << ','
           << r.spec.cores << ',' << r.spec.chips << ','
           << r.spec.farMemLat << ',' << r.spec.scale << ','
           << wp << ',' << r.spec.variant() << ',' << rr.cycles << ','
           << rr.phaseCycles[0] << ',' << rr.phaseCycles[1] << ','
           << rr.phaseCycles[2];
        for (std::size_t c = 0; c < numTrafficClasses; ++c)
            os << ',' << rr.traffic.packets[c];
        os << ',' << rr.traffic.totalPackets() << ','
           << rr.traffic.flitHops << ','
           << rr.energy.cpus << ',' << rr.energy.caches << ','
           << rr.energy.noc << ',' << rr.energy.others << ','
           << rr.energy.spms << ',' << rr.energy.cohProt << ','
           << rr.energy.total() << ','
           << rr.filterHits << ',' << rr.filterMisses << ','
           << rr.filterHitRatio << ',' << rr.filterInvalidations
           << ',' << rr.squashes << ',' << rr.localSpmServed << ','
           << rr.remoteSpmServed << ','
           << rr.counters.instructions << ','
           << rr.counters.spmAccesses << ','
           << rr.counters.dmaLines << ','
           << rr.counters.guardedAccesses << '\n';
    }

    void
    note(const std::string &text) override
    {
        os << "# " << text << '\n';
    }

    void end() override { os.flush(); }

  private:
    std::ostream &os;
};

// ------------------------------------------------------------- json

class JsonSink final : public ResultSink
{
  public:
    JsonSink(std::ostream &os_, bool with_stats_)
        : os(os_), w(os_), withStats(with_stats_)
    {}

    void
    begin(const std::string &title) override
    {
        w.beginObject();
        w.key("title").value(title);
        w.key("results").beginArray();
    }

    void
    add(const ExperimentResult &r) override
    {
        const RunResults &rr = r.results;
        w.beginObject();

        w.key("spec").beginObject();
        w.key("workload").value(r.spec.workload);
        w.key("mode").value(systemModeName(r.spec.mode));
        w.key("cores").value(r.spec.cores);
        // Emitted only off the default so single-chip goldens stay
        // byte-identical (same discipline as "protocol" below).
        if (r.spec.chips > 1)
            w.key("chips").value(r.spec.chips);
        if (r.spec.farMemLat > 0) {
            w.key("farMemLat").value(r.spec.farMemLat);
            if (r.spec.farMemBw > 0)
                w.key("farMemBw").value(r.spec.farMemBw);
        }
        w.key("scale").value(r.spec.scale);
        w.key("wparams").beginObject();
        for (const auto &kv : r.spec.wparams.all())
            w.key(kv.first).value(kv.second);
        w.endObject();
        w.key("variant").value(r.spec.variant());
        // Emitted only off the default so pre-protocol goldens stay
        // byte-identical.
        if (r.spec.protocol != ProtocolFactory::defaultName())
            w.key("protocol").value(r.spec.protocol);
        w.key("label").value(r.spec.label());
        w.endObject();

        w.key("params").beginObject();
        w.key("spmBytes").value(r.params.spmBytes);
        w.key("l1dBytes").value(r.params.l1d.sizeBytes);
        w.key("filterEntries").value(r.params.coh.filterEntries);
        w.key("spmDirEntries").value(r.params.coh.spmDirEntries);
        w.key("meshWidth").value(r.params.mesh.width);
        w.key("meshHeight").value(r.params.mesh.height);
        if (r.params.mesh.chips > 1) {
            w.key("meshChips").value(r.params.mesh.chips);
            if (r.params.farMemLatency > 0) {
                w.key("farMemLatency").value(r.params.farMemLatency);
                w.key("farMemBytesPerCycle")
                    .value(r.params.farMemBytesPerCycle);
            }
        }
        w.key("prefetcherEnabled")
            .value(r.params.l1d.prefetcher.enabled);
        w.endObject();

        w.key("cycles").value(rr.cycles);
        w.key("phaseCycles").beginObject();
        w.key("control").value(rr.phaseCycles[0]);
        w.key("sync").value(rr.phaseCycles[1]);
        w.key("work").value(rr.phaseCycles[2]);
        w.endObject();

        w.key("traffic").beginObject();
        w.key("classes").beginObject();
        for (std::size_t c = 0; c < numTrafficClasses; ++c) {
            w.key(trafficClassName(static_cast<TrafficClass>(c)))
                .beginObject();
            w.key("packets").value(rr.traffic.packets[c]);
            w.key("bytes").value(rr.traffic.bytes[c]);
            w.endObject();
        }
        w.endObject();
        w.key("totalPackets").value(rr.traffic.totalPackets());
        w.key("flitHops").value(rr.traffic.flitHops);
        w.endObject();

        w.key("energy").beginObject();
        w.key("cpus").value(rr.energy.cpus);
        w.key("caches").value(rr.energy.caches);
        w.key("noc").value(rr.energy.noc);
        w.key("others").value(rr.energy.others);
        w.key("spms").value(rr.energy.spms);
        w.key("cohProt").value(rr.energy.cohProt);
        w.key("total").value(rr.energy.total());
        w.endObject();

        w.key("filter").beginObject();
        w.key("hits").value(rr.filterHits);
        w.key("misses").value(rr.filterMisses);
        w.key("hitRatio").value(rr.filterHitRatio);
        w.key("invalidations").value(rr.filterInvalidations);
        w.endObject();

        w.key("counters").beginObject();
        const RunCounters &k = rr.counters;
        w.key("instructions").value(k.instructions);
        w.key("l1dAccesses").value(k.l1dAccesses);
        w.key("l1dMisses").value(k.l1dMisses);
        w.key("l1iAccesses").value(k.l1iAccesses);
        w.key("l1iMisses").value(k.l1iMisses);
        w.key("l2Accesses").value(k.l2Accesses);
        w.key("dirTxns").value(k.dirTxns);
        w.key("tlbAccesses").value(k.tlbAccesses);
        w.key("tlbMisses").value(k.tlbMisses);
        w.key("memLines").value(k.memLines);
        w.key("spmAccesses").value(k.spmAccesses);
        w.key("dmaLines").value(k.dmaLines);
        w.key("spmDirLookups").value(k.spmDirLookups);
        w.key("filterLookups").value(k.filterLookups);
        w.key("filterDirOps").value(k.filterDirOps);
        w.key("squashes").value(k.squashes);
        w.key("guardedAccesses").value(k.guardedAccesses);
        w.endObject();

        w.key("localSpmServed").value(rr.localSpmServed);
        w.key("remoteSpmServed").value(rr.remoteSpmServed);

        if (withStats) {
            w.key("stats").beginObject();
            for (const auto &g : r.stats) {
                w.key(g.first).beginObject();
                w.key("counters").beginObject();
                for (const auto &kv : g.second.counters)
                    w.key(kv.first).value(kv.second);
                w.endObject();
                if (!g.second.histograms.empty()) {
                    w.key("histograms").beginObject();
                    for (const auto &hv : g.second.histograms) {
                        const HistogramSnapshot &h = hv.second;
                        w.key(hv.first).beginObject();
                        w.key("edges").beginArray();
                        for (std::uint64_t e : h.edges)
                            w.value(e);
                        w.endArray();
                        w.key("buckets").beginArray();
                        for (std::uint64_t b : h.buckets)
                            w.value(b);
                        w.endArray();
                        w.key("samples").value(h.samples);
                        w.key("sum").value(h.sum);
                        w.key("max").value(h.maxValue);
                        w.endObject();
                    }
                    w.endObject();
                }
                w.endObject();
            }
            w.endObject();
        }

        w.endObject();
    }

    void
    note(const std::string &text) override
    {
        notes.push_back(text);
    }

    void
    end() override
    {
        w.endArray();
        w.key("notes").beginArray();
        for (const std::string &n : notes)
            w.value(n);
        w.endArray();
        w.endObject();
        os << '\n';
        os.flush();
    }

  private:
    std::ostream &os;
    JsonWriter w;
    bool withStats;
    std::vector<std::string> notes;
};

} // namespace

std::unique_ptr<ResultSink>
makeResultSink(ResultFormat f, std::ostream &os, bool with_stats)
{
    switch (f) {
      case ResultFormat::Csv:
        return std::make_unique<CsvSink>(os);
      case ResultFormat::Json:
        return std::make_unique<JsonSink>(os, with_stats);
      case ResultFormat::Table:
      default:
        return std::make_unique<TableSink>(os);
    }
}

} // namespace spmcoh
