/**
 * @file
 * Per-core SPM coherence controller implementation.
 */

#include "coherence/CohController.hh"

#include <memory>

#include "coherence/FilterDirSlice.hh"

namespace spmcoh
{

CohController::CohController(MemNet &net_, CohFabric &fab_,
                             const AddressMap &amap_, Spm &spm_,
                             Dmac &dmac_, CoreId core_,
                             const CohParams &p_,
                             const std::string &name)
    : net(net_), fab(fab_), amap(amap_), spm(spm_), dmac(dmac_),
      core(core_), p(p_), spmDir(p_.spmDirEntries),
      filter(p_.filterEntries), stats(name)
{
}

std::uint64_t
CohController::trackPending(PendingReq req)
{
    req.issuedAt = net.events().now();
    const std::uint64_t id = pending.acquire();
    *pending.find(id) = std::move(req);
    pendingOccupancy.sample(pending.size());
    return id;
}

CohController::PendingReq
CohController::untrackPending(std::uint64_t id, const char *what)
{
    PendingReq *slot = pending.find(id);
    if (!slot)
        panic(std::string("CohController: ") + what);
    PendingReq req = std::move(*slot);
    pending.release(id);
    resolveLatency.sample(net.events().now() - req.issuedAt);
    pendingOccupancy.sample(pending.size());
    return req;
}

void
CohController::setBufferConfig(std::uint32_t log2_bytes)
{
    // Fork-join invariant: every core programs the same masks.
    fab.config.set(log2_bytes);
    ++stConfigWrites;
}

void
CohController::mapBuffer(std::uint32_t idx, Addr gm_base,
                         std::uint32_t dma_tag)
{
    if (fab.config.base(gm_base) != gm_base)
        panic("CohController: chunk base not aligned to buffer size");
    ++stMappings;
    if (auto old = spmDir.baseOf(idx)) {
        if (fab.ideal)
            fab.oracle.unmap(*old);
    }
    spmDir.map(idx, gm_base);
    if (fab.ideal) {
        // Oracle bookkeeping only: no traffic, no latency.
        fab.oracle.map(gm_base, core, idx);
        return;
    }
    // The mapping core's own filter may cache the base.
    filter.invalidate(gm_base);
    // Fig. 6a: invalidate every remote filter entry; the mapping is
    // not usable until the FilterDir confirms (token on the DMA tag).
    dmac.addTagToken(dma_tag);
    Message m;
    m.type = MsgType::FilterInval;
    m.addr = gm_base;
    m.requestor = core;
    m.aux = dma_tag;
    m.cls = TrafficClass::CohProt;
    net.send(core, Endpoint::CohDir, fab.homeFor(gm_base), m,
             TrafficClass::CohProt);
}

void
CohController::unmapBuffer(std::uint32_t idx)
{
    if (auto old = spmDir.baseOf(idx)) {
        if (fab.ideal)
            fab.oracle.unmap(*old);
        spmDir.unmap(idx);
    }
}

GuardProbe
CohController::probeGuarded(Addr addr)
{
    ++stGuardedProbes;
    const Addr base = fab.config.base(addr);

    if (fab.ideal) {
        auto m = fab.oracle.lookup(base);
        if (!m)
            return GuardProbe{GuardProbe::Kind::UseCache};
        if (m->core == core) {
            const Addr spm_addr = amap.localSpmBase(core) +
                m->bufferIdx * fab.config.bytes() +
                fab.config.offset(addr);
            return GuardProbe{GuardProbe::Kind::LocalSpm, spm_addr};
        }
        return GuardProbe{GuardProbe::Kind::Pending};
    }

    // Parallel CAM lookups in the SPMDir and the filter (Fig. 5).
    ++stSpmdirLookups;
    ++stFilterLookups;
    if (auto idx = spmDir.lookup(base)) {
        // Fig. 5b: serve from the local SPM.
        ++stSpmdirHits;
        return GuardProbe{GuardProbe::Kind::LocalSpm,
                          amap.localSpmBase(core) +
                              *idx * fab.config.bytes() +
                              fab.config.offset(addr)};
    }
    if (filter.lookup(base)) {
        // Fig. 5a, filter hit: the lookup overlaps the TLB access, so
        // the cache path proceeds without extra latency (Sec. 3).
        ++stFilterHits;
        return GuardProbe{GuardProbe::Kind::UseCache};
    }
    // Fig. 5c/5d: both missed, so the home FilterDir is consulted.
    ++stFilterMisses;
    return GuardProbe{GuardProbe::Kind::Pending};
}

void
CohController::resolveGuarded(Addr addr, std::uint8_t size,
                              bool is_write, std::uint64_t wdata,
                              ResolveCb cb)
{
    const Addr base = fab.config.base(addr);

    if (fab.ideal) {
        // Remote SPM hit under ideal coherence: the data still has to
        // move (one request + one response packet), but there is no
        // tracking state to consult or maintain.
        auto m = fab.oracle.lookup(base);
        if (!m || m->core == core)
            panic("CohController: ideal resolve without remote hit");
        const CoreId owner = m->core;
        const std::uint32_t spm_off = static_cast<std::uint32_t>(
            m->bufferIdx * fab.config.bytes() +
            fab.config.offset(addr));
        net.accountOnly(core, owner, TrafficClass::CohProt, is_write);
        net.accountOnly(owner, core, TrafficClass::CohProt, !is_write);
        const Tick rtt =
            net.noc().routeLatency(core, owner, ctrlPacketBytes) +
            net.noc().routeLatency(owner, core, dataPacketBytes) +
            fab.ctrls[owner]->spm.accessLatency();
        auto k = std::make_shared<ResolveCb>(std::move(cb));
        net.events().scheduleIn(rtt, [this, owner, spm_off, size,
                                      is_write, wdata, k] {
            Spm &rspm = fab.ctrls[owner]->spmRef();
            if (is_write) {
                rspm.write(spm_off, size, wdata);
                (*k)(true, 0);
            } else {
                (*k)(true, rspm.read(spm_off, size));
            }
        });
        return;
    }

    // Fig. 5c/5d: ask the FilterDir home slice.
    ++stFilterChecksSent;
    const std::uint64_t id =
        trackPending(PendingReq{addr, is_write, 0, std::move(cb)});
    Message m;
    m.type = MsgType::FilterCheck;
    m.addr = addr;
    m.requestor = core;
    m.isWrite = is_write;
    m.aux = (id << 8) | size;
    m.cls = TrafficClass::CohProt;
    if (is_write) {
        m.hasData = true;
        m.data.write64(0, wdata);
    }
    net.send(core, Endpoint::CohDir, fab.homeFor(base), m,
             TrafficClass::CohProt);
}

void
CohController::remoteSpmAccess(Addr addr, std::uint8_t size,
                               bool is_write, std::uint64_t wdata,
                               ResolveCb cb)
{
    const CoreId owner = amap.spmOwner(addr);
    if (owner == core)
        panic("CohController: remoteSpmAccess to the local SPM");
    ++stRemoteSpmRequests;
    const std::uint64_t id =
        trackPending(PendingReq{addr, is_write, 0, std::move(cb)});
    Message m;
    m.type = MsgType::SpmDirect;
    m.addr = addr;
    m.requestor = core;
    m.isWrite = is_write;
    m.aux = (id << 8) | size;
    m.cls = TrafficClass::CohProt;
    if (is_write) {
        m.hasData = true;
        m.data.write64(0, wdata);
    }
    net.send(core, Endpoint::Coh, owner, m, TrafficClass::CohProt);
}

void
CohController::handle(const Message &msg)
{
    switch (msg.type) {
      case MsgType::FilterCheckAck:   onCheckAck(msg); break;
      case MsgType::FilterCheckNack:
        // Informational (Fig. 5d): completion arrives with the
        // remote SPM response; the filter must not cache the base.
        ++stCheckNacks;
        break;
      case MsgType::RemoteSpmData:    onRemoteData(msg, false); break;
      case MsgType::RemoteSpmStAck:   onRemoteData(msg, true); break;
      case MsgType::FilterInvalFwd:   onInvalFwd(msg); break;
      case MsgType::FilterInvalDone:
        ++stMapInvalsDone;
        dmac.completeTagToken(static_cast<std::uint32_t>(msg.aux));
        break;
      case MsgType::SpmDirect:        onSpmDirect(msg); break;
      default:
        panic("CohController: unexpected message");
    }
}

void
CohController::onCheckAck(const Message &msg)
{
    const std::uint64_t id = msg.aux >> 8;
    PendingReq req =
        untrackPending(id, "ack for unknown guarded access");
    // Cache the not-mapped verdict; a full filter evicts an entry
    // that the FilterDir must stop tracking for us.
    if (auto evicted = filter.insert(fab.config.base(req.addr))) {
        ++stFilterEvictions;
        Message n;
        n.type = MsgType::FilterEvictNotify;
        n.addr = *evicted;
        n.requestor = core;
        n.cls = TrafficClass::CohProt;
        net.send(core, Endpoint::CohDir, fab.homeFor(*evicted), n,
                 TrafficClass::CohProt);
    }
    ++stFilterInserts;
    req.cb(false, 0);
}

void
CohController::onRemoteData(const Message &msg, bool is_store_ack)
{
    const std::uint64_t id = msg.aux >> 8;
    PendingReq req =
        untrackPending(id, "remote response for unknown access");
    ++stRemoteSpmServed;
    req.cb(true, is_store_ack ? 0 : msg.data.read64(0));
}

void
CohController::onInvalFwd(const Message &msg)
{
    ++stFilterInvalsReceived;
    filter.invalidate(msg.addr);
    Message a;
    a.type = MsgType::FilterInvalFwdAck;
    a.addr = msg.addr;
    a.requestor = core;
    a.aux = msg.aux;
    a.cls = TrafficClass::CohProt;
    net.send(core, Endpoint::CohDir, msg.src, a,
             TrafficClass::CohProt);
}

void
CohController::onSpmDirect(const Message &msg)
{
    // Plain remote SPM access: serve after the SPM access latency.
    // The closure captures the handful of fields it needs (not the
    // whole Message), which keeps it within the inline budget.
    net.events().scheduleIn(
        spm.accessLatency(),
        [this, addr = msg.addr, aux = msg.aux,
         wdata = msg.data.read64(0), off = amap.spmOffset(msg.addr),
         requestor = msg.requestor, is_write = msg.isWrite] {
            serveSpm(off, addr, aux, requestor, is_write, wdata);
        });
}

void
CohController::serveSpm(std::uint32_t off, Addr addr, std::uint64_t aux,
                        CoreId requestor, bool is_write,
                        std::uint64_t wdata)
{
    const std::uint8_t size = static_cast<std::uint8_t>(aux & 0xff);
    Message r;
    r.addr = addr;
    r.aux = aux;
    r.requestor = requestor;
    r.cls = TrafficClass::CohProt;
    if (is_write) {
        spm.write(off, size, wdata);
        r.type = MsgType::RemoteSpmStAck;
    } else {
        r.type = MsgType::RemoteSpmData;
        r.hasData = true;
        r.data.write64(0, spm.read(off, size));
    }
    net.send(core, Endpoint::Coh, requestor, r, TrafficClass::CohProt);
}

} // namespace spmcoh
