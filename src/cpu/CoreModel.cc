/**
 * @file
 * Core timing model implementation.
 */

#include "cpu/CoreModel.hh"

#include <cstdio>

namespace spmcoh
{

CoreModel::CoreModel(MemNet &net_, L1Cache &l1d_, L1Cache &l1i_,
                     Tlb &tlb_, Spm &spm_, Dmac &dmac_,
                     CohController &coh_, const AddressMap &amap_,
                     CoreId core_, SystemMode mode_,
                     const CoreParams &p_, const std::string &name)
    : net(net_), l1d(l1d_), l1i(l1i_), tlb(tlb_), spm(spm_),
      dmac(dmac_), coh(coh_), amap(amap_), core(core_), mode(mode_),
      p(p_), stats(name)
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

bool
CoreModel::clockAhead()
{
    if (localTick <= net.events().now())
        return false;
    scheduleRunAt(localTick);
    return true;
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
                lastInstrTick = localTick;
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
          case OpKind::Store:
            if (!execLoadStore())
                return;
            haveCur = false;
            break;
          case OpKind::DmaGet:
          case OpKind::DmaPut: {
            if (clockAhead())
                return;
            DmaCommand c;
            c.isGet = cur.kind == OpKind::DmaGet;
            c.gmAddr = cur.addr;
            c.spmAddr = cur.addr2;
            c.bytes = cur.count;
            c.tag = cur.tag;
            if (!dmac.enqueue(c))
                return;  // command-queue slot callback wakes us
            ++stDmaCommands;
            addKernelStat(KernelDma, 1);
            haveCur = false;
            break;
          }
          case OpKind::MapBuffer:
            if (clockAhead())
                return;
            coh.mapBuffer(cur.count, cur.addr, cur.tag);
            haveCur = false;
            break;
          case OpKind::DmaSync: {
            if (clockAhead())
                return;
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
            if (clockAhead())
                return;
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
CoreModel::execLoadStore()
{
    if (!probed) {
        const bool is_load = cur.kind == OpKind::Load;
        if (windowBlocked()) {
            ++stRobStalls;
            return false;  // a completion will wake us
        }
        if (is_load && pendingLoads >= p.lqEntries) {
            ++stLqStalls;
            return false;
        }
        if (!is_load && pendingStores >= p.sqEntries) {
            ++stSqStalls;
            return false;
        }
        chargeLsuSlot();
        ++instrCount;
        ++stInstructions;
        ++stMemOps;
        lastInstrTick = localTick;
        pendingFlavor = probeMemOp();
        if (pendingFlavor == Flavor::Inline)
            return true;
        probed = true;
    }
    // Issue the asynchronous part at its exact tick; a full MSHR
    // file retries from the MSHR-free callback.
    if (clockAhead() || !issueMemOp())
        return false;
    probed = false;
    return true;
}

CoreModel::Flavor
CoreModel::probeMemOp()
{
    const bool is_load = cur.kind == OpKind::Load;
    if (cur.guarded && mode != SystemMode::CacheOnly) {
        ++stGuardedAccesses;
        addKernelStat(KernelGuarded, 1);
        const GuardProbe g = coh.probeGuarded(cur.addr);
        if (g.kind == GuardProbe::Kind::Pending)
            return Flavor::Guarded;
        if (g.kind == GuardProbe::Kind::LocalSpm) {
            // Fig. 5b: divert to the local SPM. The LSQ re-checks the
            // ordering for the diverted address (Sec. 3.4).
            accessLocalSpm(g.spmAddr);
            recordDivert(g.spmAddr, !is_load);
            if (!is_load) {
                // Guarded stores always also update the L1 (Sec. 3.2).
                const Tick now = net.events().now();
                net.events().schedule(
                    localTick > now ? localTick : now,
                    [this, r = L1Retry{cur.addr, storeValue(), 0,
                                       cur.refId, cur.size, true}] {
                        issueOrDefer(r);
                    });
            }
            ++stGuardedLocalSpm;
            return Flavor::Inline;
        }
        // UseCache verdict: continue on the GM path.
    } else if (amap.isSpmAddr(cur.addr)) {
        if (amap.spmOwner(cur.addr) != core)
            return Flavor::RemoteSpm;
        accessLocalSpm(cur.addr);
        ++stSpmAccesses;
        return Flavor::Inline;
    }

    if (is_load && forwardLoad(cur.addr, cur.size)) {
        ++stStoreForwards;
        return Flavor::Inline;
    }
    const Tick tlb_lat = tlb.access(cur.addr);
    if (tlb_lat)
        advance(tlb_lat);
    // A hit's latency is hidden by the OoO engine.
    Tick lat = 0;
    const bool hit = is_load
        ? l1d.tryLoad(cur.addr, cur.size, localTick, cur.refId, lat)
              .has_value()
        : l1d.tryStore(cur.addr, cur.size, storeValue(), localTick,
                       cur.refId, lat);
    return hit ? Flavor::Inline : Flavor::GmMiss;
}

void
CoreModel::accessLocalSpm(Addr spm_addr)
{
    const bool is_load = cur.kind == OpKind::Load;
    checkSquash(spm_addr, !is_load);
    const std::uint32_t off = amap.spmOffset(spm_addr);
    if (is_load)
        spm.read(off, cur.size);
    else
        spm.write(off, cur.size, storeValue());
}

bool
CoreModel::issueMemOp()
{
    const bool is_load = cur.kind == OpKind::Load;
    const std::uint64_t val = is_load ? 0 : storeValue();
    const std::uint64_t seq = nextSeq++;
    window.push_back(WindowEntry{
        seq, instrCount, cur.addr, val, cur.refId, cur.size, is_load,
        false});
    // Only a GM store waiting in the L1 forwards to younger loads;
    // it is listed before the issue in case the L1 completes it
    // inline.
    if (!is_load && pendingFlavor == Flavor::GmMiss)
        fwdStores.push_back(FwdStore{seq, cur.addr, cur.size});
    std::uint32_t &pending = is_load ? pendingLoads : pendingStores;
    ++pending;

    switch (pendingFlavor) {
      case Flavor::GmMiss:
        if (issueL1(L1Retry{cur.addr, val, seq, cur.refId, cur.size,
                            !is_load}))
            return true;
        // Roll the allocation back, seq included; we retry on MSHR
        // free.
        window.pop_back();
        dropFwdStore(seq);
        --nextSeq;
        --pending;
        return false;
      case Flavor::Guarded:
        ++stGuardedResolves;
        coh.resolveGuarded(cur.addr, cur.size, !is_load, val,
                           [this, seq](bool by_spm, std::uint64_t) {
            onGuardedResolved(seq, by_spm);
        });
        return true;
      case Flavor::RemoteSpm:
        ++stRemoteSpmAccesses;
        coh.remoteSpmAccess(cur.addr, cur.size, !is_load, val,
                            [this, seq](bool, std::uint64_t) {
            onMemComplete(seq);
        });
        return true;
      case Flavor::Inline:
        break;
    }
    panic("CoreModel: issue of an op completed inline");
}

bool
CoreModel::issueL1(const L1Retry &r)
{
    if (r.seq == 0) {
        // A write-through trains the prefetcher with its store's
        // refId, not that of the op the core is on when it runs.
        Tick lat = 0;
        return l1d.tryStore(r.addr, r.size, r.wdata, net.events().now(),
                            r.refId, lat) ||
               l1d.startStore(r.addr, r.size, r.wdata, nullptr);
    }
    auto done = [this, seq = r.seq](std::uint64_t) {
        onMemComplete(seq);
    };
    return r.isWrite ? l1d.startStore(r.addr, r.size, r.wdata, done)
                     : l1d.startLoad(r.addr, r.size, done);
}

void
CoreModel::issueOrDefer(const L1Retry &r)
{
    if (!issueL1(r))
        deferredL1.push_back(r);
}

void
CoreModel::drainDeferred()
{
    // A failed retry moves to the back and ends the pass.
    std::size_t n = deferredL1.size();
    while (n-- > 0 && !deferredL1.empty()) {
        const L1Retry r = deferredL1.front();
        deferredL1.pop_front();
        if (!issueL1(r)) {
            deferredL1.push_back(r);
            break;
        }
    }
}

CoreModel::WindowEntry &
CoreModel::windowEntry(std::uint64_t seq)
{
    const std::uint64_t i = window.empty() ? 0 : seq - window.front().seq;
    if (i >= window.size())
        panic("CoreModel: completion for unknown memory op");
    return window[i];
}

void
CoreModel::onGuardedResolved(std::uint64_t seq, bool by_spm)
{
    // A copy: the completion below may retire the record.
    const WindowEntry e = windowEntry(seq);
    if (by_spm) {
        ++stGuardedRemoteSpm;
        if (!e.isLoad)
            issueOrDefer(
                L1Retry{e.addr, e.value, 0, e.refId, e.size, true});
        onMemComplete(seq);
        return;
    }
    // Not mapped: the buffered access proceeds to the cache
    // (Fig. 5c step 5). TLB energy is charged; its latency
    // overlapped with the FilterDir round trip.
    tlb.access(e.addr);
    issueOrDefer(
        L1Retry{e.addr, e.value, seq, e.refId, e.size, !e.isLoad});
}

void
CoreModel::onMemComplete(std::uint64_t seq)
{
    WindowEntry &e = windowEntry(seq);
    if (e.done)
        panic("CoreModel: double completion");
    e.done = true;
    if (e.isLoad) {
        --pendingLoads;
    } else {
        --pendingStores;
        dropFwdStore(seq);
    }
    retireCompleted();
    wake();
}

bool
CoreModel::forwardLoad(Addr a, std::uint8_t sz) const
{
    for (const FwdStore &f : fwdStores)
        if (f.addr == a && f.size == sz)
            return true;
    return false;
}

void
CoreModel::dropFwdStore(std::uint64_t seq)
{
    std::erase_if(fwdStores,
                  [seq](const FwdStore &f) { return f.seq == seq; });
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
        if (!l1i.startLoad(cur_addr, 8, nullptr)) {
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
CoreModel::markKernel(std::int64_t id)
{
    addKernelStat(KernelCycles, localTick - kernelStartTick);
    curKernel = id;
    kernelStartTick = localTick;
}

void
CoreModel::addKernelStat(KernelStat s, std::uint64_t n)
{
    if (curKernel < 0)
        return;
    if (kernelStats.size() <= static_cast<std::size_t>(curKernel))
        kernelStats.resize(curKernel + 1);
    kernelStats[curKernel][s] += n;
}

std::string
CoreModel::stallSummary() const
{
    const auto hex = [](Addr a) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(a));
        return std::string(buf);
    };
    if (!window.empty()) {
        const WindowEntry &e = window.front();
        return std::string(e.isLoad ? "load" : "store") + " of line " +
               hex(lineAlign(e.addr)) + " in flight";
    }
    if (!haveCur)
        return "no op in progress";
    switch (cur.kind) {
      case OpKind::Load:
      case OpKind::Store:
        return std::string(cur.kind == OpKind::Load ? "load" : "store") +
               " of line " + hex(lineAlign(cur.addr)) +
               " waiting to issue";
      case OpKind::Barrier:
        return "at barrier " + std::to_string(cur.count);
      case OpKind::DmaSync:
        return "waiting for DMA tags " + hex(cur.tag);
      case OpKind::DmaGet:
      case OpKind::DmaPut:
        return "DMA command waiting for a queue slot";
      default:
        return "at op kind " + std::to_string(int(cur.kind));
    }
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
    markKernel(-1);
    static constexpr const char *kernelStatNames[numKernelStats] = {
        "Cycles", "Guarded", "Dma"};
    for (std::size_t k = 0; k < kernelStats.size(); ++k)
        for (std::size_t s = 0; s < numKernelStats; ++s)
            if (kernelStats[k][s])
                stats.counter("phase" + std::to_string(k) +
                              kernelStatNames[s]) += kernelStats[k][s];
}

} // namespace spmcoh
