/**
 * @file
 * L1 cache controller implementation.
 */

#include "mem/L1Cache.hh"

#include <algorithm>
#include <array>
#include <string>

namespace spmcoh
{

L1Cache::L1Cache(MemNet &net_, CoreId core_, bool icache_,
                 const L1Params &p_, const std::string &name,
                 const CoherenceProtocol &proto_)
    : net(net_), core(core_), icache(icache_), proto(proto_), p(p_),
      array(p_.sizeBytes / lineBytes / p_.ways, p_.ways),
      pool(net_.linePool()),
      mshr(p_.mshrs),
      prefetcher(icache_ ? PrefetcherParams{.enabled = false}
                         : p_.prefetcher),
      stats(name)
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
    const std::optional<std::uint64_t> v =
        perform(*line, addr, size, is_write, wdata);
    if (!v)
        return std::nullopt;    // upgrade or update round: async path
    if (line->prefetched && !line->used) {
        line->used = true;
        ++stUsefulPrefetches;
    }
    ++stHits;
    lat = p.hitLatency;
    return v;
}

std::optional<std::uint64_t>
L1Cache::perform(Line &line, Addr addr, std::uint8_t size,
                 bool is_write, std::uint64_t wdata)
{
    const Transition &t = proto.transition(
        line.state, is_write ? PEvent::Store : PEvent::Load);
    if (!t.has(PAction::Hit))
        return std::nullopt;
    line.state = t.next;
    LineData &data = pool[line.slot];
    if (is_write) {
        data.writeN(lineOffset(addr), size, wdata);
        return 0;
    }
    return data.readN(lineOffset(addr), size);
}

bool
L1Cache::startLoad(Addr addr, std::uint8_t size,
                   std::function<void(std::uint64_t)> on_done)
{
    return startAccess(addr, size, false, 0, std::move(on_done));
}

bool
L1Cache::startStore(Addr addr, std::uint8_t size, std::uint64_t wdata,
                    std::function<void(std::uint64_t)> on_done)
{
    return startAccess(addr, size, true, wdata, std::move(on_done));
}

bool
L1Cache::startAccess(Addr addr, std::uint8_t size, bool is_write,
                     std::uint64_t wdata,
                     std::function<void(std::uint64_t)> on_done)
{
    // A fill may have landed between the core's probe and this call;
    // complete inline without re-counting the access.
    if (Line *line = array.lookup(addr)) {
        if (const auto v = perform(*line, addr, size, is_write, wdata)) {
            if (on_done)
                on_done(*v);
            return true;
        }
    }

    const Addr la = lineAlign(addr);
    MshrTarget tgt;
    tgt.addr = addr;
    tgt.size = size;
    tgt.isWrite = is_write;
    tgt.wdata = wdata;
    tgt.onDone = std::move(on_done);

    if (MshrEntry *e = mshr.find(la)) {
        // Merge into the in-flight transaction. A prefetch that gains
        // a demand target is a demand miss from here on, so it hands
        // its prefetch slot back now (its fill counts as a demand
        // fill).
        mshr.push(e->targets, std::move(tgt));
        if (e->isPrefetch)
            --prefetchesInFlight;
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
    MshrEntry &e = allocMshr(la, is_write, false);
    mshr.push(e.targets, std::move(tgt));
    sendRequest(e);
    return true;
}

MshrEntry &
L1Cache::allocMshr(Addr line_addr, bool want_exclusive, bool prefetch)
{
    MshrEntry &e = mshr.alloc(line_addr);
    sampleMshrOccupancy();
    e.wantExclusive = want_exclusive;
    e.isPrefetch = prefetch;
    return e;
}

void
L1Cache::sendRequest(const MshrEntry &e)
{
    const Addr la = e.lineAddr;
    if (icache) {
        sendToDir(MsgType::IfetchGet, la, TrafficClass::Ifetch, core);
        return;
    }
    if (!e.wantExclusive) {
        sendToDir(MsgType::GetS, la, TrafficClass::Read, core);
        return;
    }
    const Line *resident = array.peek(la);
    const PState st = resident ? resident->state : PState::I;
    if (proto.transition(st, PEvent::Store).has(PAction::IssueUpdX)) {
        sendUpdX(la, mshr.front(e.targets));
        return;
    }
    // An upgrade from a dirty state (O) ships the line with the GetX
    // so the directory holds authoritative data even if we evict the
    // line while the upgrade is in flight.
    const bool dirty = resident && isDirty(st);
    sendToDir(MsgType::GetX, la, TrafficClass::Write, core,
              dirty ? &pool[resident->slot] : nullptr, dirty);
}

void
L1Cache::issuePrefetch(Addr line_addr)
{
    if (icache)
        return;
    line_addr = lineAlign(line_addr);
    if (array.peek(line_addr) || mshr.find(line_addr) ||
        wbBuffer.contains(line_addr))
        return;
    if (mshr.full() || prefetchesInFlight >= p.maxPrefetchInFlight)
        return;
    ++prefetchesInFlight;
    ++stPrefetchesIssued;
    sendRequest(allocMshr(line_addr, false, true));
}

void
L1Cache::trainPrefetcher(std::uint32_t ref_id, Addr addr, Tick at)
{
    prefetchCands.clear();
    prefetcher.observe(ref_id, addr, prefetchCands);
    if (prefetchCands.empty())
        return;
    EventQueue &eq = net.events();
    const Tick when = at > eq.now() ? at : eq.now();
    // The candidates issue in order from one event (several only if
    // there are more than fit in its inline capture).
    constexpr std::size_t perEvent = 4;
    for (std::size_t i = 0; i < prefetchCands.size(); i += perEvent) {
        const std::size_t n =
            std::min(perEvent, prefetchCands.size() - i);
        std::array<Addr, perEvent> lines{};
        std::copy_n(prefetchCands.begin() + static_cast<std::ptrdiff_t>(i),
                    n, lines.begin());
        eq.schedule(when, [this, lines, n = static_cast<std::uint32_t>(n)] {
            for (std::uint32_t k = 0; k < n; ++k)
                issuePrefetch(lines[k]);
        });
    }
}

void
L1Cache::handle(const Message &msg)
{
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
        const Addr la = lineAlign(msg.addr);
        WbEntry *wb = wbBuffer.find(la);
        if (!wb)
            ++stStalePutAcks;
        else if (--wb->pendingPuts == 0)
            wbBuffer.erase(la);
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
    sendToDir(MsgType::Unblock, la, msg.cls, core);
    if (Line *resident = array.lookup(la)) {
        if (msg.type == MsgType::UpdData) {
            // Update round done: the home slice applied our store
            // and pushed the line to the sharers; we stay Shared.
            pool[resident->slot] = msg.data;
            processTargets(la, true);
            return;
        }
        // Upgrade completion: the line stayed resident (S/O) while
        // GetX was in flight and DataM carries authoritative data.
        if (msg.type != MsgType::DataM)
            panic("L1Cache: non-upgrade fill for resident line");
        resident->state = PState::M;
        pool[resident->slot] = msg.data;
        processTargets(la);
        return;
    }

    PState st = PState::S;
    if (msg.type == MsgType::DataE)
        st = e->wantExclusive ? PState::M : PState::E;
    else if (msg.type == MsgType::DataM)
        st = PState::M;
    if (icache)
        st = PState::S;

    installLine(la, st, msg.data, e->isPrefetch);
    if (e->isPrefetch)
        --prefetchesInFlight;
    processTargets(la, msg.type == MsgType::UpdData);
}

void
L1Cache::processTargets(Addr line_addr, bool first_write_done)
{
    MshrChain targets = mshr.release(line_addr);
    sampleMshrOccupancy();
    Line *line = array.lookup(line_addr);
    if (!line)
        panic("L1Cache: lost line while draining targets");

    while (!targets.empty()) {
        const MshrTarget &t = mshr.front(targets);
        std::optional<std::uint64_t> v;
        if (t.isWrite && first_write_done) {
            // The home slice already applied this store as part of
            // the update round that produced the fill.
            first_write_done = false;
            v = 0;
        } else {
            v = perform(*line, t.addr, t.size, t.isWrite, t.wdata);
        }
        if (!v) {
            // Need write permission (or another update round):
            // re-issue and keep the remaining targets buffered.
            MshrEntry &ne = allocMshr(line_addr, true, false);
            ne.targets = targets;
            ++stUpgrades;
            sendRequest(ne);
            return;
        }
        MshrTarget done = mshr.pop(targets);
        if (done.onDone)
            done.onDone(*v);
    }
    if (mshrFreeCb)
        mshrFreeCb();
}

void
L1Cache::installLine(Addr line_addr, PState st, const LineData &d,
                     bool prefetch_fill)
{
    const auto ins = array.insert(
        line_addr, Line{.state = st, .prefetched = prefetch_fill,
                        .used = !prefetch_fill});
    ++stFills;
    if (ins.evicted)
        evict(ins.evicted->first, ins.evicted->second);
    // The victim's data has left; its slot is the first one free.
    ins.line->slot = pool.alloc();
    pool[ins.line->slot] = d;
}

void
L1Cache::evict(Addr line_addr, const Line &victim)
{
    ++stEvictions;
    if (victim.prefetched && !victim.used)
        ++stWastedPrefetches;
    // Untracked read-only (icache) lines vanish silently.
    if (!icache) {
        const LineData &data = pool[victim.slot];
        const Transition &t =
            proto.transition(victim.state, PEvent::Replace);
        WbEntry &wb = wbBuffer[line_addr];
        wb.state = victim.state;
        wb.data = data;
        ++wb.pendingPuts;
        if (t.has(PAction::PutDirty)) {
            ++stDirtyWritebacks;
            sendToDir(MsgType::PutM, line_addr, TrafficClass::WbRepl,
                      core, &data, true);
        } else {
            sendToDir(t.has(PAction::PutClean) ? MsgType::PutE
                                               : MsgType::PutS,
                      line_addr, TrafficClass::WbRepl, core);
        }
    }
    pool.free(victim.slot);
}

bool
L1Cache::isDirty(PState s) const
{
    return proto.transition(s, PEvent::Replace).has(PAction::PutDirty);
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
        data = pool[line->slot];
        dirty = isDirty(line->state);
        const PState next =
            proto.transition(line->state, is_getx ? PEvent::FwdGetX
                                                  : PEvent::FwdGetS)
                .next;
        if (next == PState::I) {
            pool.free(line->slot);
            array.invalidate(la);
        } else {
            line->state = next;
        }
    } else if (WbEntry *wb = wbBuffer.find(la)) {
        // Eviction raced with the forward: serve from the buffer.
        data = wb->data;
        dirty = isDirty(wb->state);
        if (is_getx)
            wb->state = PState::S;  // data handed over
        ++stForwardsFromWbBuffer;
    } else {
        panic("L1Cache: forward for a line we do not own: core " +
               std::to_string(core) + " addr " + std::to_string(la) +
               " type " + std::to_string(int(msg.type)));
    }

    // Data returns to the directory, which responds to the
    // requestor (see DirectorySlice.hh).
    sendToDir(MsgType::FwdAckData, la, msg.cls, msg.requestor, &data,
              dirty);
}

void
L1Cache::onInv(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    ++stInvalidationsReceived;
    LineData data;
    bool dirty = false;
    if (auto victim = array.invalidate(la)) {
        dirty = isDirty(victim->state);
        data = pool[victim->slot];
        pool.free(victim->slot);
    } else if (WbEntry *wb = wbBuffer.find(la)) {
        dirty = isDirty(wb->state);
        data = wb->data;
        wb->state = PState::S;  // data handed over
    }
    sendToDir(dirty ? MsgType::InvAckData : MsgType::InvAck, la, msg.cls,
              msg.requestor, dirty ? &data : nullptr, dirty);
}

void
L1Cache::onUpdate(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    ++stUpdatesReceived;
    if (Line *line = array.lookup(la)) {
        const Transition &t =
            proto.transition(line->state, PEvent::Update);
        if (t.has(PAction::Apply))
            pool[line->slot] = msg.data;
        line->state = t.next;
    } else if (WbEntry *wb = wbBuffer.find(la)) {
        // Eviction raced with the update: patch the buffered copy so
        // a forward served from it still sees the latest data.
        wb->data = msg.data;
    } else {
        ++stStaleUpdates;
    }
    sendToDir(MsgType::UpdAck, la, msg.cls, msg.requestor);
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
        data = pool[line->slot];
    } else if (WbEntry *wb = wbBuffer.find(la)) {
        data = wb->data;
    } else {
        panic("L1Cache: DMA forward for a line we do not own");
    }
    sendToDir(MsgType::FwdAckData, la, TrafficClass::Dma, msg.requestor,
              &data, true);
}

void
L1Cache::sendToDir(MsgType t, Addr line_addr, TrafficClass cls,
                   CoreId requestor, const LineData *d, bool dirty)
{
    Message m;
    m.type = t;
    m.addr = line_addr;
    m.requestor = requestor;
    m.hasData = d != nullptr;
    m.dirty = dirty;
    m.cls = cls;
    if (d)
        m.data = *d;
    net.send(core, Endpoint::Dir, net.homeSlice(line_addr), m, cls);
}

} // namespace spmcoh
