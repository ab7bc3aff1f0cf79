/**
 * @file
 * System assembly implementation.
 */

#include "system/System.hh"

#include <algorithm>

namespace spmcoh
{

System::System(const SystemParams &p_)
    : p(p_), eq(), noc(eq, p_.mesh),
      amap(p_.numCores, p_.spmBytes)
{
    const std::uint64_t tiles =
        static_cast<std::uint64_t>(p.mesh.width) * p.mesh.height *
        (p.mesh.chips ? p.mesh.chips : 1);
    if (p.numCores > tiles)
        fatal("System: " + std::to_string(p.numCores) +
              " cores exceed the " + std::to_string(p.mesh.width) +
              "x" + std::to_string(p.mesh.height) + " mesh (" +
              std::to_string(tiles) + " tiles)");
    if (p.mcTiles.empty())
        fatal("System: at least one memory controller tile is "
              "required");
    for (CoreId t : p.mcTiles)
        if (t >= tiles)
            fatal("System: memory controller tile " +
                  std::to_string(t) + " is outside the " +
                  std::to_string(p.mesh.width) + "x" +
                  std::to_string(p.mesh.height) + " mesh");
    fabric.ideal = p.mode == SystemMode::HybridIdeal;

    if (p.scaleMcBandwidth) {
        // Keep aggregate memory bandwidth proportional to the core
        // population: each line's controller occupancy becomes
        // serviceCycles * 16 * numMCs / numCores cycles, tracked in
        // 1/serviceDenom sub-cycle units (MemCtrl::serviceSlot).
        const std::uint64_t mcs64 = p.mcTiles.size();
        p.mc.serviceCycles = p.mc.serviceCycles * 16 *
            static_cast<Tick>(mcs64);
        p.mc.serviceDenom *= p.numCores;
    }

    net = std::make_unique<MemNet>(eq, noc, p.numCores, p.mcTiles);

    // Fatal here (with the known-protocol list) rather than deep in
    // a controller when the name is mistyped.
    const CoherenceProtocol &proto =
        ProtocolFactory::global().get(p.protocol);

    if (p.mesh.chips > 1) {
        hagent = std::make_unique<HomeAgent>(p.mesh.interChip,
                                             p.mesh.chips, proto);
        net->setHomeAgent(hagent.get());
        if (p.farMemLatency > 0) {
            PooledMemoryParams fp;
            fp.accessLatency = p.farMemLatency;
            fp.bytesPerCycle = p.farMemBytesPerCycle;
            fp.chips = p.mesh.chips;
            farMem = std::make_unique<PooledMemory>(fp);
        }
    } else if (p.farMemLatency > 0) {
        fatal("System: the pooled far-memory tier needs a multi-chip "
              "fabric (chips > 1)");
    }

    for (std::uint32_t i = 0; i < p.mcTiles.size(); ++i) {
        mcs.push_back(std::make_unique<MemCtrl>(
            eq, *net, mem, i, p.mcTiles[i], p.mc, farMem.get(),
            noc.chipOf(p.mcTiles[i])));
        MemCtrl *mc = mcs.back().get();
        net->setHandler(Endpoint::MemCtrl, i,
                        [mc](const Message &m) { mc->handle(m); });
    }

    for (CoreId i = 0; i < p.numCores; ++i) {
        const std::string id = std::to_string(i);

        dirs.push_back(std::make_unique<DirectorySlice>(
            *net, i, p.dir, "dir" + id, proto));
        DirectorySlice *dir = dirs.back().get();
        net->setHandler(Endpoint::Dir, i,
                        [dir](const Message &m) { dir->handle(m); });

        spms.push_back(std::make_unique<Spm>(
            p.spmBytes, p.spmLatency, "spm" + id));
        dmacs.push_back(std::make_unique<Dmac>(
            *net, *spms.back(), amap, i, p.dmac, "dmac" + id));
        Dmac *dm = dmacs.back().get();
        net->setHandler(Endpoint::Dmac, i,
                        [dm](const Message &m) { dm->handle(m); });

        cohs.push_back(std::make_unique<CohController>(
            *net, fabric, amap, *spms.back(), *dmacs.back(), i, p.coh,
            "coh" + id, proto));
        CohController *coh = cohs.back().get();
        net->setHandler(Endpoint::Coh, i,
                        [coh](const Message &m) { coh->handle(m); });

        fslices.push_back(std::make_unique<FilterDirSlice>(
            *net, fabric, i, p.filterDir, "fdir" + id));
        FilterDirSlice *fs = fslices.back().get();
        net->setHandler(Endpoint::CohDir, i,
                        [fs](const Message &m) { fs->handle(m); });

        l1ds.push_back(std::make_unique<L1Cache>(
            *net, i, false, p.l1d, "l1d" + id, proto));
        L1Cache *l1d = l1ds.back().get();
        net->setHandler(Endpoint::L1D, i,
                        [l1d](const Message &m) { l1d->handle(m); });

        L1Params l1i_params = p.l1i;
        l1i_params.prefetcher.enabled = false;
        l1is.push_back(std::make_unique<L1Cache>(
            *net, i, true, l1i_params, "l1i" + id, proto));
        L1Cache *l1i = l1is.back().get();
        net->setHandler(Endpoint::L1I, i,
                        [l1i](const Message &m) { l1i->handle(m); });

        tlbs.push_back(std::make_unique<Tlb>(p.tlb, "tlb" + id));
    }

    for (CoreId i = 0; i < p.numCores; ++i)
        fabric.ctrls.push_back(cohs[i].get());
    for (CoreId i = 0; i < p.numCores; ++i)
        fabric.slices.push_back(fslices[i].get());
    fabric.broadcastsBy.assign(p.numCores, 0);

    for (CoreId i = 0; i < p.numCores; ++i) {
        cores.push_back(std::make_unique<CoreModel>(
            *net, *l1ds[i], *l1is[i], *tlbs[i], *spms[i], *dmacs[i],
            *cohs[i], amap, i, p.mode, p.core,
            "core" + std::to_string(i)));
        cores.back()->setBarrierHook(
            [this](const MicroOp &op, std::function<void()> cb) {
                barrierFor(op).arrive(std::move(cb));
            });
    }
}

Barrier &
System::barrierFor(const MicroOp &op)
{
    auto it = barriers.find(op.count);
    if (it != barriers.end())
        return *it->second;

    // Legacy streams (hand-rolled op sources) carry no scope
    // metadata: tag == 0 means the all-cores barrier.
    const std::uint32_t parties = op.tag ? op.tag : p.numCores;
    const auto lo = static_cast<std::uint32_t>(op.addr);
    const auto hi = static_cast<std::uint32_t>(op.addr >> 32);
    Tick lat = p.barrierLatency;
    if (op.tag != 0 && !(lo == 0 && hi + 1 >= p.numCores)) {
        const std::uint32_t w = p.mesh.width;
        const std::uint32_t per_chip = w * p.mesh.height;
        if (p.mesh.chips > 1 && lo / per_chip != hi / per_chip) {
            // Subgroup spanning chips: the release round trip covers
            // a full chip diameter plus the hub crossing, matching
            // the full-machine derivation in Topology::forSystem.
            const std::uint32_t diam = (w - 1) + (p.mesh.height - 1);
            lat = Mesh::barrierReleaseLatency(p.mesh, diam) +
                  2 * Mesh::interChipTransitLatency(p.mesh,
                                                    ctrlPacketBytes);
        } else {
            // Subgroup barrier: release round trip across the span's
            // mesh bounding box (tiles are laid out row-major, so a
            // contiguous core range spanning several rows covers the
            // full width). Rows are chip-local here, so the global
            // row delta equals the on-chip delta.
            const std::uint32_t ylo = lo / w, yhi = hi / w;
            std::uint32_t xlo = 0, xhi = w ? w - 1 : 0;
            if (ylo == yhi) {
                xlo = lo % w;
                xhi = hi % w;
            }
            const std::uint32_t diam = (xhi - xlo) + (yhi - ylo);
            lat = Mesh::barrierReleaseLatency(p.mesh, diam);
        }
    }
    it = barriers
             .emplace(op.count,
                      std::make_unique<Barrier>(eq, parties, lat))
             .first;
    return *it->second;
}

bool
System::run(std::vector<std::unique_ptr<OpSource>> sources)
{
    if (sources.size() != p.numCores)
        fatal("System: need one op source per core");
    running = std::move(sources);
    for (CoreId i = 0; i < p.numCores; ++i)
        cores[i]->start(running[i].get());
    bool ok = eq.run(p.maxTicks);
    for (CoreId i = 0; ok && i < p.numCores; ++i)
        ok = cores[i]->finished();
    foldProbeTallies();
    return ok;
}

void
System::foldProbeTallies()
{
    std::uint64_t total = 0;
    for (std::uint64_t b : fabric.broadcastsBy)
        total += b;
    for (CoreId i = 0; i < p.numCores; ++i)
        cohs[i]->countProbes(total - fabric.broadcastsBy[i]);
    std::fill(fabric.broadcastsBy.begin(), fabric.broadcastsBy.end(), 0);
}

void
System::visitStats(StatVisitor &v) const
{
    for (CoreId i = 0; i < p.numCores; ++i) {
        cores[i]->statGroup().accept(v);
        l1ds[i]->statGroup().accept(v);
        l1is[i]->statGroup().accept(v);
        tlbs[i]->statGroup().accept(v);
        dirs[i]->statGroup().accept(v);
        spms[i]->statGroup().accept(v);
        dmacs[i]->statGroup().accept(v);
        cohs[i]->statGroup().accept(v);
        fslices[i]->statGroup().accept(v);
    }
    for (const auto &mc : mcs)
        mc->statGroup().accept(v);
    if (hagent)
        hagent->statGroup().accept(v);
    if (p.mesh.chips > 1)
        for (std::uint32_t c = 0; c < p.mesh.chips; ++c)
            noc.interChipLink(c).statGroup().accept(v);
    if (farMem)
        farMem->statGroup().accept(v);
}

RunResults
System::results() const
{
    RunResults r;
    for (const auto &c : cores)
        if (c->finishTick() > r.cycles)
            r.cycles = c->finishTick();
    for (const auto &c : cores)
        for (std::size_t ph = 0; ph < numExecPhases; ++ph)
            r.phaseCycles[ph] +=
                c->phaseCycles(static_cast<ExecPhase>(ph));
    r.traffic = noc.traffic();

    RunCounters &k = r.counters;
    k.cycles = r.cycles;
    k.numCores = p.numCores;
    for (CoreId i = 0; i < p.numCores; ++i) {
        const StatGroup &cs = cores[i]->statGroup();
        k.instructions += cs.value("instructions");
        k.squashes += cs.value("squashes");
        k.guardedAccesses += cs.value("guardedAccesses");
        r.localSpmServed += cs.value("guardedLocalSpm");
        r.remoteSpmServed += cs.value("guardedRemoteSpm");

        const StatGroup &l1d = l1ds[i]->statGroup();
        k.l1dAccesses += l1d.value("accesses");
        k.l1dMisses += l1d.value("misses") + l1d.value("fills");

        const StatGroup &l1i = l1is[i]->statGroup();
        k.l1iAccesses += l1i.value("accesses");
        k.l1iMisses += l1i.value("misses");
        // Fetch-group accesses not explicitly simulated: one I-cache
        // read per issue group.
        k.l1iAccesses += cs.value("instructions") / p.core.issueWidth;

        const StatGroup &t = tlbs[i]->statGroup();
        k.tlbAccesses += t.value("accesses");
        k.tlbMisses += t.value("misses");

        const StatGroup &d = dirs[i]->statGroup();
        k.dirTxns += d.value("getS") + d.value("getX") +
                     d.value("putM") + d.value("putS") +
                     d.value("putE") + d.value("ifetch") +
                     d.value("dmaRead") + d.value("dmaWrite");
        k.l2Accesses += d.value("l2Hits") + d.value("l2Misses");

        const StatGroup &s = spms[i]->statGroup();
        k.spmAccesses += s.value("reads") + s.value("writes") +
                         s.value("dmaFills") + s.value("dmaDrains");

        const StatGroup &dm = dmacs[i]->statGroup();
        k.dmaLines += dm.value("getLines") + dm.value("putLines");

        const StatGroup &coh = cohs[i]->statGroup();
        k.spmDirLookups += coh.value("spmdirLookups") +
                           coh.value("spmdirProbes") +
                           coh.value("mappings");
        k.filterLookups += coh.value("filterLookups");
        r.filterHits += coh.value("filterHits");
        r.filterMisses += coh.value("filterMisses");
        r.filterInvalidations += coh.value("filterInvalsReceived");

        const StatGroup &fd = fslices[i]->statGroup();
        k.filterDirOps += fd.value("checks") +
                          fd.value("mapInvalidations") +
                          fd.value("evictNotifies") +
                          fd.value("broadcasts");
    }
    for (const auto &mc : mcs) {
        k.memLines += mc->statGroup().value("reads") +
                      mc->statGroup().value("writes");
    }
    k.flitHops = r.traffic.flitHops;
    r.squashes = k.squashes;

    const std::uint64_t fl = r.filterHits + r.filterMisses;
    r.filterHitRatio =
        fl == 0 ? 1.0 : double(r.filterHits) / double(fl);

    EnergyParams ep = p.energy;
    EnergyModel em(ep);
    r.energy = em.compute(k);
    return r;
}

} // namespace spmcoh
