/**
 * @file
 * System assembly implementation.
 */

#include "system/System.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "system/RegionMap.hh"

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

    // Partitioned core setup. HybridIdeal stays monolithic: its
    // oracle resolves same-window read-after-write against live
    // remote mappings, which no deterministic cross-region merge
    // order can reproduce (see docs/architecture.md).
    std::uint32_t sim_threads =
        p.mode == SystemMode::HybridIdeal ? 0 : p.simThreads;
    if (p.simWindowTicks == 0)
        fatal("System: simWindowTicks must be >= 1");
    if (p.simWindowMaxTicks != 0 &&
        p.simWindowMaxTicks < p.simWindowTicks)
        fatal("System: simWindowMaxTicks (" +
              std::to_string(p.simWindowMaxTicks) +
              ") is below simWindowTicks (" +
              std::to_string(p.simWindowTicks) + ")");
    if (sim_threads > 0) {
        std::vector<std::uint32_t> cuts = p.regionCuts;
        if (cuts.empty())
            cuts = evenRegionCuts(p.mesh.width, p.mesh.height,
                                  defaultMaxRegions, p.mesh.chips);
        std::uint32_t prev = 0;
        for (std::uint32_t c : cuts) {
            if (c % p.mesh.width != 0 || c <= prev || c >= tiles)
                fatal("System: region cut " + std::to_string(c) +
                      " is not an increasing interior row boundary");
            prev = c;
        }
        // Multi-chip fabrics require every chip boundary cut: a
        // region spanning chips would let a worker thread touch the
        // inter-chip link/hub state that only the single-threaded
        // epoch merge may mutate.
        for (std::uint32_t c = 1; c < p.mesh.chips; ++c) {
            const std::uint32_t boundary =
                c * p.mesh.width * p.mesh.height;
            if (std::find(cuts.begin(), cuts.end(), boundary) ==
                cuts.end())
                fatal("System: partitioned multi-chip run is missing "
                      "the region cut at chip boundary tile " +
                      std::to_string(boundary));
        }
        if (!cuts.empty()) {
            std::uint32_t lo = 0, idx = 0;
            for (std::uint32_t c : cuts) {
                regions.push_back(
                    std::make_unique<Region>(idx++, lo, c));
                lo = c;
            }
            regions.push_back(std::make_unique<Region>(
                idx, lo, static_cast<std::uint32_t>(tiles)));
            std::vector<Region *> ptrs;
            for (auto &r : regions)
                ptrs.push_back(r.get());
            net->bindRegions(ptrs);
        }
    }
    effThreads = regions.empty()
        ? 0
        : std::min<std::uint32_t>(
              sim_threads, static_cast<std::uint32_t>(regions.size()));

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
        // A controller's eq reference must be the queue its events
        // execute on — its tile's region queue when partitioned.
        mcs.push_back(std::make_unique<MemCtrl>(
            net->queueFor(p.mcTiles[i]), *net, mem, i, p.mcTiles[i],
            p.mc, farMem.get(), noc.chipOf(p.mcTiles[i])));
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
            [this, i](const MicroOp &op, std::function<void()> cb) {
                if (regions.empty()) {
                    barrierFor(op).arrive(std::move(cb));
                    return;
                }
                // Barrier state is shared across regions, so the
                // arrival is a cross-region operation: it runs at
                // the epoch merge in canonical order, and the
                // release lands back on this core's region queue.
                net->deferCross(
                    net->events().now(),
                    [this, i, op, cb = std::move(cb)]() mutable {
                        barrierFor(op).arrive(net->queueFor(i),
                                              std::move(cb));
                    });
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
    bool ok;
    if (!regions.empty()) {
        ok = runPartitioned();
    } else {
        for (CoreId i = 0; i < p.numCores; ++i)
            cores[i]->start(running[i].get());
        ok = eq.run(p.maxTicks);
        for (CoreId i = 0; ok && i < p.numCores; ++i)
            ok = cores[i]->finished();
    }
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

bool
System::runPartitioned()
{
    // Seed each core's first event into its own region queue.
    for (CoreId i = 0; i < p.numCores; ++i) {
        tlsExecRegion = net->regionOfTile(i);
        cores[i]->start(running[i].get());
    }
    tlsExecRegion = 0;

    const auto r_count = static_cast<std::uint32_t>(regions.size());
    const std::uint32_t t_count = std::max<std::uint32_t>(
        1, std::min(effThreads, r_count));

    // Epoch window width. Fixed at simWindowTicks unless adaptive
    // (simWindowMaxTicks > 0): then it doubles after every quiet
    // epoch — no cross-region entry merged, none pending — up to the
    // ceiling, and snaps back to the base width the first time the
    // merge touches work again. Both inputs are pure functions of
    // simulation state, so the window (and horizon) sequence is
    // identical at any thread count.
    const Tick base_window = p.simWindowTicks;
    const Tick max_window =
        p.simWindowMaxTicks ? p.simWindowMaxTicks : base_window;
    Tick window = base_window;

    // Epoch observability, folded into epochStats after the loop.
    std::uint64_t windows = 0, width_sum = 0, width_max = 0;
    std::uint64_t widenings = 0, shrinks = 0;
    std::uint64_t merge_entries = 0, skipped_regions = 0;

    // A region participates in a window only when it has work below
    // the horizon: an undrained inbox delivery or a pending event.
    // Skipped regions cost their worker nothing — no inbox drain, no
    // event loop — but their queue clocks are still advanced to the
    // horizon (below, on this thread; an O(1) time bump since there
    // is nothing to execute). Merge-time code relies on every region
    // queue sitting at the merge horizon — barrier releases and
    // follow-up operations schedule relative to queue clocks — so a
    // parked region must not fall behind simulated time.
    std::vector<std::uint8_t> active(r_count, 0);

    // Conservative windowed loop: the horizon is the earliest
    // pending work anywhere (region queues, undrained inboxes, or
    // deferred cross-region entries) plus the window width. Every
    // active region drains its inbox and runs to the horizon —
    // events exactly at it wait for the next epoch — then the
    // single-threaded merge prices cross-region traffic in canonical
    // order into per-destination inboxes.
    auto nextHorizon = [&](Tick &horizon) {
        Tick nmin = net->crossPendingTick();
        for (std::uint32_t r = 0; r < r_count; ++r) {
            nmin = std::min(nmin, regions[r]->eq.nextTick());
            nmin = std::min(nmin, net->inboxTick(r));
        }
        if (nmin == maxTick)
            return false;  // drained
        horizon = nmin + window;
        for (std::uint32_t r = 0; r < r_count; ++r) {
            active[r] = net->inboxTick(r) < horizon ||
                        regions[r]->eq.nextTick() < horizon;
            if (!active[r]) {
                // Nothing below the horizon: advance the clock only
                // (no events run), keeping the at-the-horizon
                // invariant merge-time scheduling depends on.
                regions[r]->eq.runUntil(horizon);
                ++skipped_regions;
            }
        }
        ++windows;
        width_sum += window;
        width_max = std::max<std::uint64_t>(width_max, window);
        return true;
    };

    auto runRegion = [&](std::uint32_t idx, Tick horizon) {
        if (!active[idx])
            return;
        net->drainInbox(idx);
        tlsExecRegion = idx;
        regions[idx]->eq.runUntil(horizon);
        tlsExecRegion = 0;
    };

    // Merge, then adapt the window off what the merge saw.
    auto mergeAndAdapt = [&](Tick horizon) {
        const std::uint64_t merged = net->mergeEpoch(horizon);
        merge_entries += merged;
        if (max_window <= base_window)
            return;
        const bool quiet = merged == 0 &&
                           net->crossPendingTick() == maxTick &&
                           net->inboxPendingTick() == maxTick;
        const Tick next_window =
            quiet ? std::min<Tick>(window * 2, max_window)
                  : base_window;
        widenings += next_window > window ? 1 : 0;
        shrinks += next_window < window ? 1 : 0;
        window = next_window;
    };

    bool guard_tripped = false;

    if (t_count == 1) {
        Tick horizon = 0;
        while (nextHorizon(horizon)) {
            if (horizon > p.maxTicks + window) {
                guard_tripped = true;
                break;
            }
            for (std::uint32_t r = 0; r < r_count; ++r)
                runRegion(r, horizon);
            mergeAndAdapt(horizon);
        }
    } else {
        // Persistent workers, static round-robin region assignment
        // (worker w drives regions w, w + T, ...; worker 0 is this
        // thread). Spin barriers bracket each window: epochs are a
        // handful of simulated ticks, so parking in the kernel every
        // window would dominate the run.
        SpinBarrier start_gate(t_count);
        SpinBarrier done_gate(t_count);
        Tick horizon = 0;
        bool stop = false;
        std::vector<std::exception_ptr> errors(r_count);

        auto windowFor = [&](std::uint32_t w) {
            for (std::uint32_t r = w; r < r_count; r += t_count) {
                try {
                    runRegion(r, horizon);
                } catch (...) {
                    errors[r] = std::current_exception();
                    tlsExecRegion = 0;
                }
            }
        };

        std::vector<std::thread> workers;
        for (std::uint32_t w = 1; w < t_count; ++w) {
            workers.emplace_back([&, w] {
                for (;;) {
                    start_gate.wait();
                    if (stop)
                        return;
                    windowFor(w);
                    done_gate.wait();
                }
            });
        }

        while (nextHorizon(horizon)) {
            if (horizon > p.maxTicks + window) {
                guard_tripped = true;
                break;
            }
            start_gate.wait();
            windowFor(0);
            done_gate.wait();
            bool failed = false;
            for (const auto &e : errors)
                failed = failed || static_cast<bool>(e);
            if (failed)
                break;
            mergeAndAdapt(horizon);
        }
        stop = true;
        start_gate.wait();
        for (std::thread &t : workers)
            t.join();
        // Rethrow the lowest region's failure (a deterministic
        // choice) once the workers are parked.
        for (const auto &e : errors)
            if (e)
                std::rethrow_exception(e);
    }

    noc.foldRegionalTraffic();
    epochStats.counter("windows") += windows;
    epochStats.counter("windowTicks") += width_sum;
    epochStats.counter("windowMax") += width_max;
    epochStats.counter("widenings") += widenings;
    epochStats.counter("shrinks") += shrinks;
    epochStats.counter("mergeEntries") += merge_entries;
    epochStats.counter("skippedRegions") += skipped_regions;
    if (guard_tripped)
        return false;
    for (CoreId i = 0; i < p.numCores; ++i)
        if (!cores[i]->finished())
            return false;
    return true;
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
    // Partitioned runs only: the epoch loop's window/merge/skip
    // counters (empty — and omitted — for monolithic runs).
    if (!regions.empty())
        epochStats.accept(v);
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
