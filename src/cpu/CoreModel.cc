/**
 * @file
 * Core timing model implementation.
 */

#include "cpu/CoreModel.hh"

namespace spmcoh
{

CoreModel::CoreModel(MemNet &net_, L1Cache &l1d_, L1Cache &l1i_,
                     Tlb &tlb_, Spm &spm_, Dmac &dmac_,
                     CohController &coh_, const AddressMap &amap_,
                     CoreId core_, SystemMode mode_,
                     const CoreParams &p_, const std::string &name)
    : net(net_), l1d(l1d_), l1i(l1i_), tlb(tlb_), spm(spm_),
      dmac(dmac_), coh(coh_), amap(amap_), core(core_), mode(mode_),
      p(p_), stats(name),
      stInstructions(stats.counter("instructions")),
      stMemOps(stats.counter("memOps")),
      stRobStalls(stats.counter("robStalls")),
      stLqStalls(stats.counter("lqStalls")),
      stSqStalls(stats.counter("sqStalls")),
      stStoreForwards(stats.counter("storeForwards")),
      stSpmAccesses(stats.counter("spmAccesses")),
      stGuardedAccesses(stats.counter("guardedAccesses")),
      stGuardedLocalSpm(stats.counter("guardedLocalSpm")),
      stGuardedResolves(stats.counter("guardedResolves")),
      stGuardedRemoteSpm(stats.counter("guardedRemoteSpm")),
      stRemoteSpmAccesses(stats.counter("remoteSpmAccesses")),
      stDmaCommands(stats.counter("dmaCommands")),
      stSquashes(stats.counter("squashes")),
      stKernelCodeWalks(stats.counter("kernelCodeWalks")),
      stCycles(stats.counter("cycles"))
{
    l1d.setMshrFreeCallback([this] {
        drainDeferred();
        wake();
    });
    dmac.setCmdSlotCallback([this] { wake(); });
}

void
CoreModel::start(OpSource *src)
{
    source = src;
    done = false;
    wake();
}

void
CoreModel::wake()
{
    if (runScheduled || done || !source)
        return;
    runScheduled = true;
    const Tick now = net.events().now();
    net.events().schedule(localTick > now ? localTick : now,
                          [this] { run(); });
}

void
CoreModel::scheduleRunAt(Tick t)
{
    if (runScheduled)
        return;
    runScheduled = true;
    net.events().schedule(t, [this] { run(); });
}

void
CoreModel::advance(Tick cycles)
{
    localTick += cycles;
    phaseCyc[static_cast<std::size_t>(curPhase)] += cycles;
}

void
CoreModel::chargeLsuSlot()
{
    if (memCycleTick != localTick) {
        memCycleTick = localTick;
        memThisCycle = 0;
    }
    if (memThisCycle == p.lsUnits) {
        advance(1);
        memCycleTick = localTick;
        memThisCycle = 0;
    }
    ++memThisCycle;
}

void
CoreModel::retireCompleted()
{
    while (!window.empty() && window.front().done)
        window.pop_front();
}

bool
CoreModel::windowBlocked()
{
    retireCompleted();
    return !window.empty() &&
           instrCount - window.front().instrNo >=
               static_cast<std::uint64_t>(p.robEntries);
}

void
CoreModel::run()
{
    runScheduled = false;
    if (done)
        return;
    const Tick now = net.events().now();
    if (now > localTick) {
        // Time spent blocked (miss stall, DMA wait, barrier...) is
        // charged to the phase that was executing.
        phaseCyc[static_cast<std::size_t>(curPhase)] += now - localTick;
        localTick = now;
    }

    while (true) {
        if (!haveCur) {
            if (!source->next(cur)) {
                // Drain outstanding memory ops before retiring.
                retireCompleted();
                if (!window.empty())
                    return;  // a completion will wake us
                finish();
                return;
            }
            haveCur = true;
            probed = false;
        }
        switch (cur.kind) {
          case OpKind::NonMem: {
            // Consume in ROB-window-sized gulps: runahead past an
            // incomplete memory op is bounded by the ROB.
            while (cur.count > 0) {
                retireCompleted();
                std::uint64_t allowed = cur.count;
                if (!window.empty()) {
                    const std::uint64_t used =
                        instrCount - window.front().instrNo;
                    if (used >= p.robEntries) {
                        ++stRobStalls;
                        return;  // completion wakes us
                    }
                    if (p.robEntries - used < allowed)
                        allowed = p.robEntries - used;
                }
                instrCount += allowed;
                stInstructions += allowed;
                advance(divCeil(allowed, p.issueWidth));
                cur.count -= static_cast<std::uint32_t>(allowed);
            }
            haveCur = false;
            break;
          }
          case OpKind::Phase:
            curPhase = static_cast<ExecPhase>(cur.tag);
            haveCur = false;
            break;
          case OpKind::KernelMark:
            markKernel(cur.count);
            haveCur = false;
            break;
          case OpKind::SetBufCfg:
            coh.setBufferConfig(cur.count);
            haveCur = false;
            break;
          case OpKind::KernelCode:
            startCodeFetch(cur.addr, cur.count);
            haveCur = false;
            break;
          case OpKind::Load:
          case OpKind::Store: {
            bool need_return = false;
            if (execLoadStore(need_return)) {
                haveCur = false;
                break;
            }
            if (need_return)
                return;
            break;
          }
          case OpKind::DmaGet:
          case OpKind::DmaPut: {
            if (localTick > net.events().now()) {
                scheduleRunAt(localTick);
                return;
            }
            DmaCommand c;
            c.isGet = cur.kind == OpKind::DmaGet;
            c.gmAddr = cur.addr;
            c.spmAddr = cur.addr2;
            c.bytes = cur.count;
            c.tag = cur.tag;
            if (!dmac.enqueue(c))
                return;  // command-queue slot callback wakes us
            ++stDmaCommands;
            bumpKernel(kernelDma);
            haveCur = false;
            break;
          }
          case OpKind::MapBuffer:
            if (localTick > net.events().now()) {
                scheduleRunAt(localTick);
                return;
            }
            coh.mapBuffer(cur.count, cur.addr, cur.tag);
            haveCur = false;
            break;
          case OpKind::DmaSync: {
            if (localTick > net.events().now()) {
                scheduleRunAt(localTick);
                return;
            }
            if (!probed) {
                probed = true;
                dmac.sync(cur.tag, [this] { wake(); });
            }
            if (dmac.quiescent(cur.tag)) {
                probed = false;
                haveCur = false;
                break;
            }
            return;
          }
          case OpKind::Barrier: {
            if (localTick > net.events().now()) {
                scheduleRunAt(localTick);
                return;
            }
            if (!probed) {
                probed = true;
                barrierDone = false;
                if (!barrierArrive)
                    panic("CoreModel: no barrier hook installed");
                barrierArrive(cur, [this] {
                    barrierDone = true;
                    wake();
                });
            }
            if (barrierDone) {
                probed = false;
                haveCur = false;
                break;
            }
            return;
          }
          case OpKind::End:
            finish();
            return;
        }
    }
}

bool
CoreModel::execLoadStore(bool &need_return)
{
    need_return = false;
    const bool is_load = cur.kind == OpKind::Load;

    if (!probed) {
        if (windowBlocked()) {
            ++stRobStalls;
            need_return = true;  // a completion will wake us
            return false;
        }
        if (is_load && pendingLoads >= p.lqEntries) {
            ++stLqStalls;
            need_return = true;
            return false;
        }
        if (!is_load && pendingStores >= p.sqEntries) {
            ++stSqStalls;
            need_return = true;
            return false;
        }
        chargeLsuSlot();
        ++instrCount;
        ++stInstructions;
        ++stMemOps;

        if (cur.guarded && mode != SystemMode::CacheOnly) {
            bool fall_to_gm = false;
            const bool fin = guardedPath(need_return, fall_to_gm);
            if (!fall_to_gm) {
                if (!fin && !need_return && probed)
                    return execLoadStore(need_return);
                return fin;
            }
            // UseCache verdict: continue on the GM path.
        } else if (amap.isSpmAddr(cur.addr)) {
            if (amap.spmOwner(cur.addr) == core)
                return spmLocal(cur.addr);
            probed = true;
            pendingFlavor = Flavor::RemoteSpm;
            return execLoadStore(need_return);
        }
        return gmPath(need_return);
    }

    // Probed already: issue the asynchronous part at its exact tick.
    if (localTick > net.events().now()) {
        scheduleRunAt(localTick);
        need_return = true;
        return false;
    }
    bool ok = true;
    switch (pendingFlavor) {
      case Flavor::GmMiss:    ok = issueAsyncGm(); break;
      case Flavor::Guarded:   issueAsyncGuarded(); break;
      case Flavor::RemoteSpm: issueAsyncRemoteSpm(); break;
    }
    if (!ok) {
        need_return = true;  // MSHR-free callback wakes us
        return false;
    }
    probed = false;
    return true;
}

bool
CoreModel::gmPath(bool &need_return)
{
    const bool is_load = cur.kind == OpKind::Load;
    if (is_load) {
        if (auto v = forwardLoad(cur.addr, cur.size)) {
            (void)v;
            ++stStoreForwards;
            return true;
        }
    }
    const Tick tlb_lat = tlb.access(cur.addr);
    if (tlb_lat)
        advance(tlb_lat);

    Tick lat = 0;
    if (is_load) {
        if (l1d.tryLoad(cur.addr, cur.size, localTick, cur.refId, lat))
            return true;  // hit; latency hidden by the OoO engine
    } else {
        const std::uint64_t val = storeValue();
        if (l1d.tryStore(cur.addr, cur.size, val, localTick, cur.refId,
                         lat))
            return true;
    }
    probed = true;
    pendingFlavor = Flavor::GmMiss;
    return execLoadStore(need_return);
}

bool
CoreModel::spmLocal(Addr a)
{
    const bool is_load = cur.kind == OpKind::Load;
    const std::uint32_t off = amap.spmOffset(a);
    checkSquash(a, !is_load);
    if (is_load)
        spm.read(off, cur.size);
    else
        spm.write(off, cur.size, storeValue());
    ++stSpmAccesses;
    return true;
}

bool
CoreModel::guardedPath(bool &need_return, bool &fall_to_gm)
{
    (void)need_return;
    const bool is_load = cur.kind == OpKind::Load;
    ++stGuardedAccesses;
    bumpKernel(kernelGuarded);
    const GuardProbe g = coh.probeGuarded(cur.addr, !is_load);
    switch (g.kind) {
      case GuardProbe::Kind::UseCache:
        fall_to_gm = true;
        return false;
      case GuardProbe::Kind::LocalSpm: {
        // Fig. 5b: divert to the local SPM. The LSQ re-checks the
        // ordering for the diverted address (Sec. 3.4).
        checkSquash(g.spmAddr, !is_load);
        recordDivert(g.spmAddr, !is_load);
        const std::uint32_t off = amap.spmOffset(g.spmAddr);
        if (is_load) {
            spm.read(off, cur.size);
        } else {
            const std::uint64_t val = storeValue();
            spm.write(off, cur.size, val);
            // Guarded stores always also update the L1 (Sec. 3.2).
            const Addr gm = cur.addr;
            const std::uint8_t sz = cur.size;
            const Tick at = localTick;
            const Tick now = net.events().now();
            net.events().schedule(at > now ? at : now,
                                  [this, gm, sz, val] {
                writeThroughL1(gm, sz, val);
            });
        }
        ++stGuardedLocalSpm;
        return true;
      }
      case GuardProbe::Kind::Pending:
        probed = true;
        pendingFlavor = Flavor::Guarded;
        return false;
    }
    return false;
}

std::uint64_t
CoreModel::allocWindow(bool is_load)
{
    const std::uint64_t seq = nextSeq++;
    window.push_back(WindowEntry{seq, instrCount, is_load, false});
    if (is_load)
        ++pendingLoads;
    else
        ++pendingStores;
    return seq;
}

bool
CoreModel::issueAsyncGm()
{
    const bool is_load = cur.kind == OpKind::Load;
    const Addr a = cur.addr;
    const std::uint8_t sz = cur.size;
    const std::uint64_t seq = allocWindow(is_load);
    bool ok;
    if (is_load) {
        ok = l1d.startLoad(a, sz, cur.refId,
                           [this, seq](std::uint64_t v) {
            onMemComplete(seq, v);
        });
    } else {
        const std::uint64_t val = storeValue();
        ok = l1d.startStore(a, sz, val, cur.refId,
                            [this, seq](std::uint64_t) {
            onMemComplete(seq, 0);
        });
        if (ok)
            storeFwd.push_back(StoreFwdEntry{seq, a, sz, val});
    }
    if (!ok) {
        // Roll the window allocation back; we retry on MSHR free.
        window.pop_back();
        if (is_load)
            --pendingLoads;
        else
            --pendingStores;
    }
    return ok;
}

void
CoreModel::issueAsyncGuarded()
{
    const bool is_load = cur.kind == OpKind::Load;
    const Addr a = cur.addr;
    const std::uint8_t sz = cur.size;
    const std::uint32_t ref = cur.refId;
    const std::uint64_t val = is_load ? 0 : storeValue();
    const std::uint64_t seq = allocWindow(is_load);
    ++stGuardedResolves;
    coh.resolveGuarded(a, sz, !is_load, val,
                       [this, seq, a, sz, ref, val, is_load](
                           bool by_spm, std::uint64_t v) {
        if (by_spm) {
            ++stGuardedRemoteSpm;
            if (!is_load)
                writeThroughL1(a, sz, val);
            onMemComplete(seq, v);
            return;
        }
        // Not mapped: the buffered access proceeds to the cache
        // (Fig. 5c step 5). TLB energy is charged; its latency
        // overlapped with the FilterDir round trip.
        tlb.access(a);
        auto attempt = [this, seq, a, sz, ref, val,
                        is_load]() -> bool {
            if (is_load) {
                return l1d.startLoad(a, sz, ref,
                                     [this, seq](std::uint64_t v2) {
                    onMemComplete(seq, v2);
                });
            }
            return l1d.startStore(a, sz, val, ref,
                                  [this, seq](std::uint64_t) {
                onMemComplete(seq, 0);
            });
        };
        if (!attempt())
            deferredL1.push_back(attempt);
    });
}

void
CoreModel::issueAsyncRemoteSpm()
{
    const bool is_load = cur.kind == OpKind::Load;
    const std::uint64_t val = is_load ? 0 : storeValue();
    const std::uint64_t seq = allocWindow(is_load);
    ++stRemoteSpmAccesses;
    coh.remoteSpmAccess(cur.addr, cur.size, !is_load, val,
                        [this, seq](bool, std::uint64_t v) {
        onMemComplete(seq, v);
    });
}

void
CoreModel::onMemComplete(std::uint64_t seq, std::uint64_t value)
{
    (void)value;
    for (WindowEntry &e : window) {
        if (e.seq == seq) {
            if (e.done)
                panic("CoreModel: double completion");
            e.done = true;
            if (e.isLoad) {
                --pendingLoads;
            } else {
                --pendingStores;
                for (std::size_t i = 0; i < storeFwd.size(); ++i) {
                    if (storeFwd[i].seq == seq) {
                        storeFwd.erase(
                            storeFwd.begin() +
                            static_cast<std::ptrdiff_t>(i));
                        break;
                    }
                }
            }
            retireCompleted();
            wake();
            return;
        }
    }
    panic("CoreModel: completion for unknown memory op");
}

std::optional<std::uint64_t>
CoreModel::forwardLoad(Addr a, std::uint8_t sz)
{
    for (auto it = storeFwd.rbegin(); it != storeFwd.rend(); ++it)
        if (it->addr == a && it->size == sz)
            return it->value;
    return std::nullopt;
}

void
CoreModel::writeThroughL1(Addr gm_addr, std::uint8_t size,
                          std::uint64_t wdata)
{
    auto attempt = [this, gm_addr, size, wdata]() -> bool {
        Tick lat = 0;
        if (l1d.tryStore(gm_addr, size, wdata, net.events().now(),
                         cur.refId, lat))
            return true;
        return l1d.startStore(gm_addr, size, wdata, 0, nullptr);
    };
    if (!attempt())
        deferredL1.push_back(attempt);
}

void
CoreModel::drainDeferred()
{
    std::size_t n = deferredL1.size();
    while (n-- > 0 && !deferredL1.empty()) {
        auto f = std::move(deferredL1.front());
        deferredL1.pop_front();
        if (!f()) {
            deferredL1.push_back(std::move(f));
            break;
        }
    }
}

void
CoreModel::recordDivert(Addr spm_addr, bool is_write)
{
    std::erase_if(diverts, [this](const PendingDivert &d) {
        return d.resolveAt <= localTick;
    });
    diverts.push_back(PendingDivert{localTick + p.divertResolveDelay,
                                    spm_addr, is_write});
}

void
CoreModel::checkSquash(Addr spm_addr, bool is_write)
{
    for (std::size_t i = 0; i < diverts.size(); ++i) {
        const PendingDivert &d = diverts[i];
        if (d.resolveAt > localTick && d.spmAddr == spm_addr &&
            (d.isWrite || is_write)) {
            // Ordering violation found by the LSQ re-check: flush the
            // 13-stage pipeline and re-execute (Sec. 3.4).
            const Tick target =
                (d.resolveAt > localTick ? d.resolveAt : localTick) +
                p.flushPenalty;
            advance(target - localTick);
            ++stSquashes;
            diverts.erase(diverts.begin() +
                          static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

void
CoreModel::startCodeFetch(Addr addr, std::uint32_t bytes)
{
    ++stKernelCodeWalks;
    codeFetchStep(lineAlign(addr), lineAlign(addr) + bytes);
}

void
CoreModel::codeFetchStep(Addr cur_addr, Addr end)
{
    if (cur_addr >= end)
        return;
    Tick lat = 0;
    const Tick now = net.events().now();
    if (!l1i.tryLoad(cur_addr, 8, now, 0xffffff, lat)) {
        if (!l1i.startLoad(cur_addr, 8, 0xffffff, nullptr)) {
            // I-MSHRs busy: retry this line later.
            net.events().scheduleIn(p.codeFetchInterval * 4,
                                    [this, cur_addr, end] {
                codeFetchStep(cur_addr, end);
            });
            return;
        }
    }
    net.events().scheduleIn(p.codeFetchInterval,
                            [this, cur_addr, end] {
        codeFetchStep(cur_addr + lineBytes, end);
    });
}

std::uint64_t
CoreModel::storeValue() const
{
    return cur.hasWdata ? cur.wdata
                        : defaultStoreValue(cur.addr, cur.refId);
}

void
CoreModel::markKernel(std::uint32_t id)
{
    if (curKernel >= 0) {
        if (kernelCyc.size() <= static_cast<std::size_t>(curKernel))
            kernelCyc.resize(curKernel + 1, 0);
        kernelCyc[curKernel] += localTick - kernelStartTick;
    }
    curKernel = id;
    kernelStartTick = localTick;
}

void
CoreModel::bumpKernel(std::vector<std::uint64_t> &v)
{
    if (curKernel < 0)
        return;
    if (v.size() <= static_cast<std::size_t>(curKernel))
        v.resize(curKernel + 1, 0);
    ++v[curKernel];
}

void
CoreModel::finish()
{
    if (done)
        return;
    done = true;
    finishedAt = localTick;
    stCycles += localTick;

    // Flush the phase-graph attribution (only populated when the op
    // stream carried KernelMark ops).
    if (curKernel >= 0) {
        if (kernelCyc.size() <= static_cast<std::size_t>(curKernel))
            kernelCyc.resize(curKernel + 1, 0);
        kernelCyc[curKernel] += localTick - kernelStartTick;
        curKernel = -1;
    }
    for (std::size_t k = 0; k < kernelCyc.size(); ++k)
        if (kernelCyc[k])
            stats.counter("phase" + std::to_string(k) + "Cycles") +=
                kernelCyc[k];
    for (std::size_t k = 0; k < kernelGuarded.size(); ++k)
        if (kernelGuarded[k])
            stats.counter("phase" + std::to_string(k) + "Guarded") +=
                kernelGuarded[k];
    for (std::size_t k = 0; k < kernelDma.size(); ++k)
        if (kernelDma[k])
            stats.counter("phase" + std::to_string(k) + "Dma") +=
                kernelDma[k];
}

} // namespace spmcoh
