/**
 * @file
 * L1 cache controller implementation.
 */

#include "mem/L1Cache.hh"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace spmcoh
{

static const char *trace_env = std::getenv("SPMCOH_TRACE_LINE");
static const unsigned long long trace_line =
    trace_env ? std::stoull(trace_env, nullptr, 0) : 0;

L1Cache::L1Cache(MemNet &net_, CoreId core_, bool icache_,
                 const L1Params &p_, const std::string &name,
                 const CoherenceProtocol &proto_)
    : net(net_), core(core_), icache(icache_), proto(proto_), p(p_),
      array(p_.sizeBytes / lineBytes / p_.ways, p_.ways),
      mshr(p_.mshrs),
      prefetcher(icache_ ? PrefetcherParams{.enabled = false}
                         : p_.prefetcher),
      stats(name),
      stAccesses(stats.counter("accesses")),
      stHits(stats.counter("hits")),
      stMisses(stats.counter("misses")),
      stFills(stats.counter("fills")),
      stEvictions(stats.counter("evictions")),
      stDirtyWritebacks(stats.counter("dirtyWritebacks")),
      stMshrMerges(stats.counter("mshrMerges")),
      stMshrFullRejects(stats.counter("mshrFullRejects")),
      stUpgrades(stats.counter("upgrades")),
      stPrefetchesIssued(stats.counter("prefetchesIssued")),
      stUsefulPrefetches(stats.counter("usefulPrefetches")),
      stWastedPrefetches(stats.counter("wastedPrefetches")),
      stStalePutAcks(stats.counter("stalePutAcks")),
      stForwardsServiced(stats.counter("forwardsServiced")),
      stForwardsFromWbBuffer(stats.counter("forwardsFromWbBuffer")),
      stInvalidationsReceived(stats.counter("invalidationsReceived")),
      stUpdatesReceived(stats.counter("updatesReceived")),
      stStaleUpdates(stats.counter("staleUpdates")),
      stUpdXSent(stats.counter("updXSent")),
      mshrOccupancy(stats.histogram("mshrOccupancy",
                                    {1, 2, 4, 8, 16, 24, 32, 48}))
{
}

std::optional<std::uint64_t>
L1Cache::tryLoad(Addr addr, std::uint8_t size, Tick at,
                 std::uint32_t ref_id, Tick &lat)
{
    return tryAccess(addr, size, false, 0, at, ref_id, lat);
}

bool
L1Cache::tryStore(Addr addr, std::uint8_t size, std::uint64_t wdata,
                  Tick at, std::uint32_t ref_id, Tick &lat)
{
    return tryAccess(addr, size, true, wdata, at, ref_id, lat)
        .has_value();
}

std::optional<std::uint64_t>
L1Cache::tryAccess(Addr addr, std::uint8_t size, bool is_write,
                   std::uint64_t wdata, Tick at, std::uint32_t ref_id,
                   Tick &lat)
{
    if (lineOffset(addr) + size > lineBytes)
        panic("L1Cache: access crosses a line boundary");
    ++stAccesses;
    Line *line = array.lookup(addr);
    trainPrefetcher(ref_id, addr, at);
    if (!line)
        return std::nullopt;
    if (is_write && !proto.storeHits(pstateOf(line->state))) {
        // Needs an upgrade (or an update round); async path.
        return std::nullopt;
    }
    if (line->prefetched && !line->used) {
        line->used = true;
        ++stUsefulPrefetches;
    }
    ++stHits;
    lat = p.hitLatency;
    if (is_write) {
        line->state = L1State::M;
        line->data.writeN(lineOffset(addr), size, wdata);
        return 0;
    }
    return line->data.readN(lineOffset(addr), size);
}

bool
L1Cache::startLoad(Addr addr, std::uint8_t size, std::uint32_t ref_id,
                   std::function<void(std::uint64_t)> on_done)
{
    return startAccess(addr, size, false, 0, ref_id,
                       std::move(on_done));
}

bool
L1Cache::startStore(Addr addr, std::uint8_t size, std::uint64_t wdata,
                    std::uint32_t ref_id,
                    std::function<void(std::uint64_t)> on_done)
{
    return startAccess(addr, size, true, wdata, ref_id,
                       std::move(on_done));
}

bool
L1Cache::startAccess(Addr addr, std::uint8_t size, bool is_write,
                     std::uint64_t wdata, std::uint32_t ref_id,
                     std::function<void(std::uint64_t)> on_done)
{
    // A fill may have landed between the core's probe and this call;
    // complete inline without re-counting the access.
    (void)ref_id;
    if (Line *line = array.lookup(addr)) {
        const bool writable = proto.storeHits(pstateOf(line->state));
        if (!is_write || writable) {
            std::uint64_t v = 0;
            if (is_write) {
                line->state = L1State::M;
                line->data.writeN(lineOffset(addr), size, wdata);
            } else {
                v = line->data.readN(lineOffset(addr), size);
            }
            if (on_done)
                on_done(v);
            return true;
        }
    }

    const Addr la = lineAlign(addr);
    if (trace_line && la == trace_line)
        std::fprintf(stderr, "[l1%s%u t%llu] startAccess w=%d\n", icache?"i":"d", core,
            (unsigned long long)net.events().now(), int(is_write));
    MshrTarget tgt;
    tgt.addr = addr;
    tgt.size = size;
    tgt.isWrite = is_write;
    tgt.wdata = wdata;
    tgt.onDone = std::move(on_done);

    if (MshrEntry *e = mshr.find(la)) {
        // Merge into the in-flight transaction.
        e->targets.push_back(std::move(tgt));
        e->isPrefetch = false;
        if (is_write)
            e->wantExclusive = true;
        ++stMshrMerges;
        return true;
    }
    if (mshr.full()) {
        ++stMshrFullRejects;
        return false;
    }
    ++stMisses;
    MshrEntry &e = mshr.alloc(la);
    sampleMshrOccupancy();
    e.wantExclusive = is_write;
    e.isPrefetch = false;
    e.issued = true;
    e.targets.push_back(std::move(tgt));
    if (icache) {
        sendToDir(MsgType::IfetchGet, la, TrafficClass::Ifetch);
    } else if (is_write) {
        const Line *resident = array.peek(la);
        const PState st =
            resident ? pstateOf(resident->state) : PState::I;
        if (proto.storeRequest(st) == MsgType::UpdX) {
            sendUpdX(la, e.targets.front());
        } else {
            // An upgrade from O must ship the dirty line with the
            // GetX so the directory holds authoritative data even if
            // we evict the line while the upgrade is in flight.
            const bool dirty_upgrade =
                resident && resident->state == L1State::O;
            sendToDir(MsgType::GetX, la, TrafficClass::Write,
                      dirty_upgrade, dirty_upgrade ? &resident->data
                                                   : nullptr,
                      dirty_upgrade);
        }
    } else {
        sendToDir(MsgType::GetS, la, TrafficClass::Read);
    }
    return true;
}

void
L1Cache::issuePrefetch(Addr line_addr)
{
    if (icache)
        return;
    line_addr = lineAlign(line_addr);
    if (array.peek(line_addr) || mshr.find(line_addr) ||
        wbBuffer.count(line_addr))
        return;
    if (mshr.full() || prefetchesInFlight >= p.maxPrefetchInFlight)
        return;
    MshrEntry &e = mshr.alloc(line_addr);
    sampleMshrOccupancy();
    e.isPrefetch = true;
    e.issued = true;
    ++prefetchesInFlight;
    ++stPrefetchesIssued;
    sendToDir(MsgType::GetS, line_addr, TrafficClass::Read, false,
              nullptr, false, true);
}

void
L1Cache::trainPrefetcher(std::uint32_t ref_id, Addr addr, Tick at)
{
    static thread_local std::vector<Addr> cands;
    cands.clear();
    prefetcher.observe(ref_id, addr, cands);
    if (cands.empty())
        return;
    EventQueue &eq = net.events();
    const Tick when = at > eq.now() ? at : eq.now();
    for (Addr a : cands)
        eq.schedule(when, [this, a] { issuePrefetch(a); });
}

void
L1Cache::handle(const Message &msg)
{
    if (trace_line && lineAlign(msg.addr) == trace_line)
        std::fprintf(stderr, "[l1%s%u t%llu] msg type=%d\n", icache?"i":"d", core,
            (unsigned long long)net.events().now(), int(msg.type));
    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::UpdData:
        onFill(msg);
        break;
      case MsgType::Update:
        onUpdate(msg);
        break;
      case MsgType::PutAck: {
        auto it = wbBuffer.find(lineAlign(msg.addr));
        if (it == wbBuffer.end()) {
            ++stStalePutAcks;
        } else if (--it->second.pendingPuts == 0) {
            wbBuffer.erase(it);
        }
        break;
      }
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
        onFwd(msg);
        break;
      case MsgType::Inv:
        onInv(msg);
        break;
      case MsgType::FwdDmaRead:
        onDmaFwd(msg);
        break;
      default:
        panic("L1Cache: unexpected message");
    }
}

void
L1Cache::onFill(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    MshrEntry *e = mshr.find(la);
    if (!e)
        panic("L1Cache: fill without MSHR");
    // The directory keeps the line blocked until we confirm the fill
    // landed; a control forward must never overtake a data fill.
    // Sent before target processing so an upgrade reissue (GetX)
    // queues behind the unblock on the same path.
    sendToDir(MsgType::Unblock, la, msg.cls);
    if (Line *resident = array.lookup(la)) {
        if (msg.type == MsgType::UpdData) {
            // Update round done: the home slice applied our store
            // and pushed the line to the sharers; we stay Shared.
            resident->data = msg.data;
            processTargets(la, true);
            return;
        }
        // Upgrade completion: the line stayed resident (S/O) while
        // GetX was in flight and DataM carries authoritative data.
        if (msg.type != MsgType::DataM)
            panic("L1Cache: non-upgrade fill for resident line");
        resident->state = L1State::M;
        resident->data = msg.data;
        processTargets(la);
        return;
    }

    L1State st = L1State::S;
    if (msg.type == MsgType::DataE)
        st = e->wantExclusive ? L1State::M : L1State::E;
    else if (msg.type == MsgType::DataM)
        st = L1State::M;
    if (icache)
        st = L1State::S;

    installLine(la, st, msg.data, e->isPrefetch);
    if (e->isPrefetch)
        --prefetchesInFlight;
    processTargets(la, msg.type == MsgType::UpdData);
}

void
L1Cache::processTargets(Addr line_addr, bool first_write_done)
{
    MshrEntry e = mshr.release(line_addr);
    sampleMshrOccupancy();
    Line *line = array.lookup(line_addr);
    if (!line)
        panic("L1Cache: lost line while draining targets");

    while (!e.targets.empty()) {
        MshrTarget &t = e.targets.front();
        if (t.isWrite) {
            if (first_write_done) {
                // The home slice already applied this store as part
                // of the update round that produced the fill.
                first_write_done = false;
                if (t.onDone)
                    t.onDone(0);
                e.targets.pop_front();
                continue;
            }
            if (!proto.storeHits(pstateOf(line->state))) {
                // Need write permission (or another update round):
                // re-issue and keep the remaining targets buffered.
                MshrEntry &ne = mshr.alloc(line_addr);
                sampleMshrOccupancy();
                ne.wantExclusive = true;
                ne.isPrefetch = false;
                ne.issued = true;
                ne.targets = std::move(e.targets);
                ++stUpgrades;
                if (proto.storeRequest(pstateOf(line->state)) ==
                    MsgType::UpdX) {
                    sendUpdX(line_addr, ne.targets.front());
                } else {
                    sendToDir(MsgType::GetX, line_addr,
                              TrafficClass::Write);
                }
                return;
            }
            line->state = L1State::M;
            line->data.writeN(lineOffset(t.addr), t.size, t.wdata);
            if (t.onDone)
                t.onDone(0);
        } else {
            const std::uint64_t v =
                line->data.readN(lineOffset(t.addr), t.size);
            if (t.onDone)
                t.onDone(v);
        }
        e.targets.pop_front();
    }
    notifyMshrFree();
}

void
L1Cache::installLine(Addr line_addr, L1State st, const LineData &d,
                     bool prefetch_fill)
{
    Line nl;
    nl.state = st;
    nl.data = d;
    nl.prefetched = prefetch_fill;
    nl.used = !prefetch_fill;
    auto evicted = array.insert(line_addr, std::move(nl));
    ++stFills;
    if (evicted)
        evict(evicted->first, std::move(evicted->second));
}

void
L1Cache::evict(Addr line_addr, Line &&victim)
{
    if (trace_line && line_addr == trace_line)
        std::fprintf(stderr, "[l1%s%u t%llu] evict state=%d\n", icache?"i":"d", core,
            (unsigned long long)net.events().now(), int(victim.state));
    ++stEvictions;
    if (victim.prefetched && !victim.used)
        ++stWastedPrefetches;
    if (icache)
        return;     // untracked read-only lines vanish silently
    const MsgType put = proto.replacement(pstateOf(victim.state));
    WbEntry &wb = wbBuffer[line_addr];
    wb.state = victim.state;
    wb.data = victim.data;
    ++wb.pendingPuts;
    if (put == MsgType::PutM) {
        ++stDirtyWritebacks;
        sendToDir(MsgType::PutM, line_addr, TrafficClass::WbRepl, true,
                  &victim.data, true);
    } else {
        sendToDir(put, line_addr, TrafficClass::WbRepl);
    }
}

void
L1Cache::onFwd(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    const bool is_getx = msg.type == MsgType::FwdGetX;
    ++stForwardsServiced;

    LineData data;
    bool dirty = false;
    if (Line *line = array.lookup(la)) {
        data = line->data;
        dirty = line->state == L1State::M || line->state == L1State::O;
        if (is_getx) {
            array.invalidate(la);
        } else {
            line->state =
                l1stateOf(proto.afterFwdGetS(pstateOf(line->state)));
        }
    } else if (auto it = wbBuffer.find(la); it != wbBuffer.end()) {
        // Eviction raced with the forward: serve from the buffer.
        data = it->second.data;
        dirty = it->second.state == L1State::M ||
                it->second.state == L1State::O;
        if (is_getx)
            it->second.state = L1State::S;  // data handed over
        ++stForwardsFromWbBuffer;
    } else {
        panic("L1Cache: forward for a line we do not own: core " +
               std::to_string(core) + " addr " + std::to_string(la) +
               " type " + std::to_string(int(msg.type)));
    }

    // Data returns to the directory, which responds to the
    // requestor (see DirectorySlice.hh).
    Message resp;
    resp.type = MsgType::FwdAckData;
    resp.addr = la;
    resp.requestor = msg.requestor;
    resp.hasData = true;
    resp.dirty = dirty;
    resp.cls = msg.cls;
    resp.data = data;
    net.send(core, Endpoint::Dir, net.homeSlice(la), resp, msg.cls);
}

void
L1Cache::onInv(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    ++stInvalidationsReceived;
    LineData data;
    bool dirty = false;
    if (auto victim = array.invalidate(la)) {
        dirty = victim->state == L1State::M ||
                victim->state == L1State::O;
        data = victim->data;
    } else if (auto it = wbBuffer.find(la); it != wbBuffer.end()) {
        dirty = it->second.state == L1State::M ||
                it->second.state == L1State::O;
        data = it->second.data;
        it->second.state = L1State::S;  // data handed over
    }
    Message resp;
    resp.type = dirty ? MsgType::InvAckData : MsgType::InvAck;
    resp.addr = la;
    resp.requestor = msg.requestor;
    resp.dirty = dirty;
    resp.hasData = dirty;
    if (dirty)
        resp.data = data;
    resp.cls = msg.cls;
    net.send(core, Endpoint::Dir, net.homeSlice(la), resp, msg.cls);
}

void
L1Cache::onUpdate(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    ++stUpdatesReceived;
    if (Line *line = array.lookup(la)) {
        const Transition &t =
            proto.transition(pstateOf(line->state), PEvent::Update);
        if (t.has(PAction::Apply))
            line->data = msg.data;
        line->state = l1stateOf(t.next);
    } else if (auto it = wbBuffer.find(la); it != wbBuffer.end()) {
        // Eviction raced with the update: patch the buffered copy so
        // a forward served from it still sees the latest data.
        it->second.data = msg.data;
    } else {
        ++stStaleUpdates;
    }
    Message resp;
    resp.type = MsgType::UpdAck;
    resp.addr = la;
    resp.requestor = msg.requestor;
    resp.cls = msg.cls;
    net.send(core, Endpoint::Dir, net.homeSlice(la), resp, msg.cls);
}

void
L1Cache::sendUpdX(Addr line_addr, const MshrTarget &t)
{
    ++stUpdXSent;
    Message m;
    m.type = MsgType::UpdX;
    m.addr = t.addr;    // exact address: the slice applies the word
    m.requestor = core;
    m.hasData = true;
    m.aux = t.size;
    m.data.write64(0, t.wdata);
    m.cls = TrafficClass::Write;
    net.send(core, Endpoint::Dir, net.homeSlice(line_addr), m,
             TrafficClass::Write);
}

void
L1Cache::onDmaFwd(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    LineData data;
    if (const Line *line = array.peek(la)) {
        data = line->data;
    } else if (auto it = wbBuffer.find(la); it != wbBuffer.end()) {
        data = it->second.data;
    } else {
        panic("L1Cache: DMA forward for a line we do not own");
    }
    Message resp;
    resp.type = MsgType::FwdAckData;
    resp.addr = la;
    resp.requestor = msg.requestor;
    resp.hasData = true;
    resp.dirty = true;
    resp.data = data;
    resp.cls = TrafficClass::Dma;
    net.send(core, Endpoint::Dir, net.homeSlice(la), resp,
             TrafficClass::Dma);
}

void
L1Cache::sendToDir(MsgType t, Addr line_addr, TrafficClass cls,
                   bool has_data, const LineData *d, bool dirty,
                   bool is_prefetch)
{
    Message m;
    m.type = t;
    m.addr = line_addr;
    m.requestor = core;
    m.hasData = has_data;
    m.dirty = dirty;
    m.isPrefetch = is_prefetch;
    m.cls = cls;
    if (d)
        m.data = *d;
    net.send(core, Endpoint::Dir, net.homeSlice(line_addr), m, cls);
}

void
L1Cache::notifyMshrFree()
{
    if (mshrFreeCb)
        mshrFreeCb();
}

} // namespace spmcoh
