/**
 * @file
 * Directory slice implementation: blocking MOESI state machine.
 */

#include "mem/DirectorySlice.hh"

#include <string>

namespace spmcoh
{

DirectorySlice::DirectorySlice(MemNet &net_, CoreId tile_,
                               const DirSliceParams &p_,
                               const std::string &name,
                               const CoherenceProtocol &proto_)
    : net(net_), tile(tile_), memCtrl(net_.nearestMemCtrl(tile_)),
      proto(proto_), p(p_),
      l2(p_.l2SizeBytes / lineBytes / p_.l2Ways, p_.l2Ways,
         lineShift + log2i(net_.cores())),
      pool(net_.linePool()),
      dir(p_.dirEntries / p_.dirWays, p_.dirWays,
          lineShift + log2i(net_.cores())),
      stats(name)
{
}

DirectorySlice::Txn &
DirectorySlice::acquireTxn()
{
    if (txnFree.empty()) {
        txnStore.push_back(std::make_unique<Txn>());
        return *txnStore.back();
    }
    Txn *t = txnFree.back();
    txnFree.pop_back();
    return *t;
}

std::optional<DirectorySlice::EntrySnapshot>
DirectorySlice::peekEntry(Addr line_addr) const
{
    const DirEntry *de = dir.peek(line_addr);
    if (!de)
        return std::nullopt;
    return EntrySnapshot{de->state, de->owner, de->sharers};
}

void
DirectorySlice::handle(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::UpdX:
      case MsgType::PutM:
      case MsgType::PutS:
      case MsgType::PutE:
      case MsgType::IfetchGet:
      case MsgType::DmaRead:
      case MsgType::DmaWrite:
        if (Txn **t = busy.find(la)) {
            enqueue(**t, msg);
            ++stQueuedRequests;
        } else {
            startTxn(acquireTxn(), msg);
        }
        break;
      case MsgType::InvAck:
      case MsgType::InvAckData:
      case MsgType::UpdAck:
        onAck(msg);
        break;
      case MsgType::FwdAckData:
        onFwdData(msg);
        break;
      case MsgType::MemReadResp:
        onMemResp(msg);
        break;
      case MsgType::MemWriteAck: {
        ++stMemWriteAcks;
        MemWb &wb = memWb.at(la, "DirectorySlice: stray MemWriteAck");
        if (--wb.pending == 0)
            memWb.erase(la);
        break;
      }
      case MsgType::Unblock:
        onUnblock(msg);
        break;
      default:
        panic("DirectorySlice: unexpected message");
    }
}

void
DirectorySlice::openTxn(Txn &t, Addr la)
{
    t.la = la;
    t.startedAt = net.events().now();
    t.pendingAcks = 0;
    t.wantData = t.haveData = t.dataDirty = false;
    t.awaitingUnblock = false;
    t.done = Done::None;
    busy.insert(la, &t);
    sampleTxnOccupancy();
}

void
DirectorySlice::startTxn(Txn &t, const Message &req)
{
    t.req = req;
    openTxn(t, lineAlign(req.addr));
    Txn *tp = &t;
    net.events().scheduleIn(p.dirLatency, [this, tp] { dispatch(*tp); });
}

void
DirectorySlice::dispatch(Txn &t)
{
    switch (t.req.type) {
      case MsgType::GetS:      handleGetS(t); break;
      case MsgType::GetX:      handleGetX(t); break;
      case MsgType::UpdX:      handleUpdX(t); break;
      case MsgType::PutM:      handlePutM(t); break;
      case MsgType::PutS:
      case MsgType::PutE:      handlePutShared(t); break;
      case MsgType::IfetchGet: handleIfetch(t); break;
      case MsgType::DmaRead:   handleDmaRead(t); break;
      case MsgType::DmaWrite:  handleDmaWrite(t); break;
      default:
        panic("DirectorySlice: bad transaction request");
    }
}

void
DirectorySlice::grantNewEntry(Txn &t, MsgType grant)
{
    if (!allocEntry(t.la, DirEntry{.state = DirState::Excl,
                                   .owner = t.req.requestor})) {
        ++stAllocRetries;
        Txn *tp = &t;
        net.events().scheduleIn(p.retryDelay,
                                [this, tp] { dispatch(*tp); });
        return;
    }
    t.done = Done::Grant;
    t.grant = grant;
    fetchData(t, t.req.cls);
}

void
DirectorySlice::handleGetS(Txn &t)
{
    ++stGetS;
    DirEntry *de = dir.lookup(t.la);
    if (!de) {
        grantNewEntry(t, MsgType::DataE);
        return;
    }
    t.grant = MsgType::DataS;
    if (de->state == DirState::Shared) {
        // L2/memory data is valid.
        de->sharers |= coreBit(t.req.requestor);
        t.done = Done::Grant;
        fetchData(t, t.req.cls);
        return;
    }
    // Freshest copy is at the owner: forward.
    ++stFwdGetS;
    sendFwd(t, MsgType::FwdGetS, de->owner, t.req.cls);
    t.done = Done::OwnerRead;
}

void
DirectorySlice::handleGetX(Txn &t)
{
    ++stGetX;
    const CoreId r = t.req.requestor;
    DirEntry *de = dir.lookup(t.la);

    if (!de) {
        grantNewEntry(t, MsgType::DataM);
        return;
    }
    t.done = Done::Exclusive;
    t.grant = MsgType::DataM;

    if (de->state == DirState::Excl) {
        if (de->owner == r)
            panic("DirectorySlice: GetX from exclusive owner: addr " +
                  std::to_string(t.la) + " core " + std::to_string(r));
        ++stFwdGetX;
        sendFwd(t, MsgType::FwdGetX, de->owner, t.req.cls);
        return;
    }

    // Shared or Owned: invalidate everyone except the requestor.
    const bool owner_supplies =
        de->state == DirState::Owned && de->owner != r &&
        de->owner != invalidCore;
    invalidateCopies(t, holders(*de) & ~coreBit(r), r);
    if (t.req.hasData && t.req.dirty) {
        // Upgrade from O shipped the dirty line with the request.
        t.data = t.req.data;
        t.haveData = true;
        t.wantData = true;
    } else if (owner_supplies) {
        t.wantData = true;   // dirty data arrives via InvAckData
    } else {
        fetchData(t, t.req.cls);
    }
    checkDone(t);
}

void
DirectorySlice::handleUpdX(Txn &t)
{
    ++stUpdX;
    DirEntry *de = dir.lookup(t.la);

    if (!de || de->state == DirState::Excl) {
        // Nobody to update: the line is untracked, or one exclusive
        // holder owns it and migrating ownership (the GetX path) is
        // strictly cheaper than an update round. The requestor gets
        // DataM and applies its store locally.
        handleGetX(t);
        return;
    }

    // Shared: apply the write at the home slice and push the
    // post-write line to every other sharer (Dragon-style).
    std::uint64_t sharers = de->sharers;
    if (de->owner != invalidCore) {
        // Update-based tables have no Owned state; fold a stray
        // owner into the sharer set defensively.
        sharers |= coreBit(de->owner);
        de->owner = invalidCore;
    }
    de->state = DirState::Shared;
    de->sharers = sharers | coreBit(t.req.requestor);
    t.done = Done::ApplyUpdate;
    fetchData(t, t.req.cls);
}

void
DirectorySlice::handlePutM(Txn &t)
{
    ++stPutM;
    const CoreId r = t.req.requestor;
    DirEntry *de = dir.lookup(t.la);
    if (de && de->owner == r &&
        (de->state == DirState::Excl || de->state == DirState::Owned)) {
        l2Insert(t.la, t.req.data, true);
        if (de->state == DirState::Owned && de->sharers != 0) {
            de->state = DirState::Shared;
            de->owner = invalidCore;
        } else {
            dir.invalidate(t.la);
        }
    } else {
        ++stStalePuts;
    }
    respond(r, Endpoint::L1D, MsgType::PutAck, t.la, nullptr,
            TrafficClass::WbRepl);
    finishTxn(t);
}

void
DirectorySlice::handlePutShared(Txn &t)
{
    ++(t.req.type == MsgType::PutE ? stPutE : stPutS);
    const CoreId r = t.req.requestor;
    DirEntry *de = dir.lookup(t.la);
    if (de) {
        if (t.req.type == MsgType::PutE) {
            if (de->state == DirState::Excl && de->owner == r)
                dir.invalidate(t.la);
        } else {
            de->sharers &= ~coreBit(r);
            if (de->owner == invalidCore && de->sharers == 0)
                dir.invalidate(t.la);
        }
    } else {
        ++stStalePuts;
    }
    respond(r, Endpoint::L1D, MsgType::PutAck, t.la, nullptr,
            TrafficClass::WbRepl);
    finishTxn(t);
}

void
DirectorySlice::handleIfetch(Txn &t)
{
    ++stIfetch;
    t.done = Done::Grant;
    t.grant = MsgType::DataS;
    fetchData(t, TrafficClass::Ifetch);
}

void
DirectorySlice::handleDmaRead(Txn &t)
{
    ++stDmaRead;
    DirEntry *de = dir.lookup(t.la);
    t.done = Done::DmaRead;
    if (de && de->owner != invalidCore &&
        (de->state == DirState::Excl || de->state == DirState::Owned)) {
        // Snapshot the freshest copy without disturbing the owner.
        sendFwd(t, MsgType::FwdDmaRead, de->owner, TrafficClass::Dma);
    } else {
        fetchData(t, TrafficClass::Dma);
    }
}

void
DirectorySlice::handleDmaWrite(Txn &t)
{
    ++stDmaWrite;
    if (DirEntry *de = dir.lookup(t.la)) {
        invalidateCopies(t, holders(*de), t.req.requestor);
        dir.invalidate(t.la);
    }
    if (const auto gone = l2.invalidate(t.la))
        pool.free(gone->slot);
    t.done = Done::DmaWrite;
    checkDone(t);
}

void
DirectorySlice::onAck(const Message &msg)
{
    Txn &t = *busy.at(lineAlign(msg.addr),
                      "DirectorySlice: ack for idle line");
    if (t.pendingAcks == 0)
        panic("DirectorySlice: unexpected ack");
    --t.pendingAcks;
    if (msg.type == MsgType::InvAckData) {
        t.data = msg.data;
        t.haveData = true;
        t.dataDirty = true;
    }
    checkDone(t);
}

void
DirectorySlice::onFwdData(const Message &msg)
{
    Txn &t = *busy.at(lineAlign(msg.addr),
                      "DirectorySlice: forward data for idle line");
    t.data = msg.data;
    t.haveData = true;
    t.dataDirty = msg.dirty;
    checkDone(t);
}

void
DirectorySlice::onMemResp(const Message &msg)
{
    Txn &t = *busy.at(lineAlign(msg.addr),
                      "DirectorySlice: memory response for idle line");
    // Cache the fill in the NUCA slice, DMA fills included: the GM
    // "includes caches and main memory" (Sec. 2.1), so DMA re-reads
    // hit on-chip.
    l2Insert(t.la, msg.data, false);
    t.data = msg.data;
    t.haveData = true;
    t.dataDirty = false;
    checkDone(t);
}

void
DirectorySlice::fetchData(Txn &t, TrafficClass cls)
{
    t.wantData = true;
    const LineData *onChip = nullptr;
    if (const MemWb *wb = memWb.find(t.la)) {
        // Forward from the in-flight writeback (ordering safety).
        ++stMemWbForwards;
        onChip = &wb->data;
    } else if (const L2Line *l = l2.lookup(t.la)) {
        ++stL2Hits;
        onChip = &pool[l->slot];
    }
    if (!onChip) {
        ++stL2Misses;
        Message m;
        m.type = MsgType::MemRead;
        m.addr = t.la;
        m.requestor = tile;
        m.cls = cls;
        net.send(tile, Endpoint::MemCtrl, memCtrl, m, cls);
        return;
    }
    // Snapshot now: the buffer or L2 line may change before the fill.
    t.fill = *onChip;
    Txn *tp = &t;
    net.events().scheduleIn(p.l2Latency, [this, tp] {
        tp->data = tp->fill;
        tp->haveData = true;
        checkDone(*tp);
    });
}

void
DirectorySlice::l2Insert(Addr la, const LineData &d, bool dirty)
{
    if (L2Line *l = l2.lookup(la)) {
        pool[l->slot] = d;
        l->dirty = l->dirty || dirty;
        return;
    }
    // The way insert() would pick: the first invalid one, else the
    // pseudo-LRU victim.
    const std::uint32_t way = *l2.allocWay(la, [](Addr) { return true; });
    std::uint32_t slot;
    if (const auto victim = l2.occupant(la, way)) {
        const L2Line &v = *l2.peek(*victim);
        slot = v.slot;
        if (v.dirty) {
            ++stL2DirtyEvictions;
            const LineData &old = pool[slot];
            Message w;
            w.type = MsgType::MemWrite;
            w.addr = *victim;
            w.requestor = tile;
            w.hasData = true;
            w.data = old;
            w.cls = TrafficClass::WbRepl;
            MemWb &wb = memWb[*victim];
            wb.data = old;
            ++wb.pending;
            net.send(tile, Endpoint::MemCtrl, memCtrl, w,
                     TrafficClass::WbRepl);
        }
    } else {
        slot = pool.alloc();
    }
    pool[slot] = d;
    l2.fillWay(la, way, L2Line{.slot = slot, .dirty = dirty});
}

bool
DirectorySlice::allocEntry(Addr la, DirEntry e)
{
    auto way = dir.allocWay(la, [this](Addr a) {
        return !busy.contains(a);
    });
    if (!way)
        return false;
    if (auto victim = dir.occupant(la, *way)) {
        // Evicting a tracked line: recall its L1 copies first. The
        // recall runs as an independent transaction on the victim
        // line; the new entry takes the slot immediately.
        const std::uint64_t targets = holders(*dir.peek(*victim));
        ++stRecalls;
        Txn &recall = acquireTxn();
        openTxn(recall, *victim);
        invalidateCopies(recall, targets, invalidCore);
        recall.done = Done::Recall;
        checkDone(recall);
    }
    dir.fillWay(la, *way, e);
    return true;
}

void
DirectorySlice::sendFwd(Txn &t, MsgType ty, CoreId owner,
                        TrafficClass cls)
{
    Message m;
    m.type = ty;
    m.addr = t.la;
    m.requestor = t.req.requestor;
    m.cls = cls;
    net.send(tile, Endpoint::L1D, owner, m, cls);
    t.wantData = true;
}

std::uint64_t
DirectorySlice::holders(const DirEntry &e)
{
    return e.owner == invalidCore ? e.sharers
                                  : e.sharers | coreBit(e.owner);
}

void
DirectorySlice::invalidateCopies(Txn &t, std::uint64_t targets,
                                 CoreId requestor)
{
    forEachCore(targets, [&](CoreId c) {
        ++stInvalidationsSent;
        Message m;
        m.type = MsgType::Inv;
        m.addr = t.la;
        m.requestor = requestor;
        m.cls = TrafficClass::WbRepl;
        net.send(tile, Endpoint::L1D, c, m, TrafficClass::WbRepl);
        ++t.pendingAcks;
    });
}

void
DirectorySlice::sendUpdate(CoreId target, Addr la, CoreId requestor,
                           const LineData &d, TrafficClass cls)
{
    ++stUpdatesSent;
    Message m;
    m.type = MsgType::Update;
    m.addr = la;
    m.requestor = requestor;
    m.hasData = true;
    m.data = d;
    m.cls = cls;
    net.send(tile, Endpoint::L1D, target, m, cls);
}

void
DirectorySlice::respond(CoreId core, Endpoint ep, MsgType ty, Addr la,
                        const LineData *d, TrafficClass cls,
                        std::uint64_t aux)
{
    Message m;
    m.type = ty;
    m.addr = la;
    m.requestor = core;
    m.aux = aux;
    m.cls = cls;
    if (d) {
        m.hasData = true;
        m.data = *d;
    }
    net.send(tile, ep, core, m, cls);
}

void
DirectorySlice::onUnblock(const Message &msg)
{
    Txn **t = busy.find(lineAlign(msg.addr));
    if (!t || !(*t)->awaitingUnblock)
        panic("DirectorySlice: unexpected Unblock");
    finishTxn(**t);
}

void
DirectorySlice::checkDone(Txn &t)
{
    if (t.pendingAcks != 0 || (t.wantData && !t.haveData) ||
        t.done == Done::None)
        return;
    const Done step = t.done;
    t.done = Done::None;
    complete(t, step);
}

void
DirectorySlice::complete(Txn &t, Done step)
{
    const CoreId r = t.req.requestor;
    switch (step) {
      case Done::None:
        panic("DirectorySlice: completing an unarmed transaction");
      case Done::Grant:
        break;
      case Done::Exclusive: {
        DirEntry *e = dir.lookup(t.la);
        e->state = DirState::Excl;
        e->owner = r;
        e->sharers = 0;
        break;
      }
      case Done::OwnerRead: {
        DirEntry *e = dir.lookup(t.la);
        if (!e)
            panic("DirectorySlice: entry vanished during GetS");
        if (t.dataDirty && proto.ownerKeepsDirtyOnGetS()) {
            // Owner keeps the dirty line: Excl -> Owned.
            e->state = DirState::Owned;
            e->sharers |= coreBit(r);
        } else if (e->state == DirState::Excl) {
            // Owner downgraded (E/M -> S); the L2 slice absorbs the
            // data, dirty when the protocol has no Owned state to
            // park a dirty line in.
            e->sharers = coreBit(e->owner) | coreBit(r);
            e->owner = invalidCore;
            e->state = DirState::Shared;
            l2Insert(t.la, t.data, t.dataDirty);
        } else {
            e->sharers |= coreBit(r);
        }
        break;
      }
      case Done::ApplyUpdate: {
        // The line data is here: apply the word, refresh the L2 copy
        // and fan the update out; the Grant of UpdData waits for
        // every UpdAck. The writer stays Shared.
        t.data.writeN(lineOffset(t.req.addr),
                      static_cast<std::uint32_t>(t.req.aux),
                      t.req.data.read64(0));
        l2Insert(t.la, t.data, true);
        DirEntry *e = dir.lookup(t.la);
        if (!e)
            panic("DirectorySlice: entry vanished during UpdX");
        forEachCore(e->sharers & ~coreBit(r), [&](CoreId c) {
            sendUpdate(c, t.la, r, t.data, t.req.cls);
            ++t.pendingAcks;
        });
        t.done = Done::Grant;
        t.grant = MsgType::UpdData;
        checkDone(t);
        return;
      }
      case Done::DmaRead:
        respond(r, Endpoint::Dmac, MsgType::DmaReadResp, t.la, &t.data,
                TrafficClass::Dma, t.req.aux);
        finishTxn(t);
        return;
      case Done::DmaWrite: {
        // The whole line is overwritten; cached dirty data (if any
        // arrived via InvAckData) is dead.
        Message w;
        w.type = MsgType::MemWrite;
        w.addr = t.la;
        w.requestor = tile;
        w.hasData = true;
        w.data = t.req.data;
        w.cls = TrafficClass::Dma;
        MemWb &wb = memWb[t.la];
        wb.data = t.req.data;
        ++wb.pending;
        net.send(tile, Endpoint::MemCtrl, memCtrl, w, TrafficClass::Dma);
        respond(r, Endpoint::Dmac, MsgType::DmaWriteAck, t.la, nullptr,
                TrafficClass::Dma, t.req.aux);
        finishTxn(t);
        return;
      }
      case Done::Recall:
        if (t.dataDirty)
            l2Insert(t.la, t.data, true);
        finishTxn(t);
        return;
    }
    respond(r,
            t.req.type == MsgType::IfetchGet ? Endpoint::L1I
                                              : Endpoint::L1D,
            t.grant, t.la, &t.data, t.req.cls);
    t.awaitingUnblock = true;
}

void
DirectorySlice::finishTxn(Txn &t)
{
    busy.erase(t.la);
    txnLatency.sample(net.events().now() - t.startedAt);
    sampleTxnOccupancy();
    if (t.queuedCount == 0) {
        txnFree.push_back(&t);
        return;
    }
    // startTxn copies the request and queues nothing, so the entry
    // stays put while it runs.
    const Message &next = t.queued[t.queuedHead];
    if (++t.queuedHead == t.queuedCap)
        t.queuedHead = 0;
    --t.queuedCount;
    startTxn(t, next);
}

void
DirectorySlice::enqueue(Txn &t, const Message &msg)
{
    if (t.queuedCount == t.queuedCap) {
        // Unroll the full ring, oldest first, into one twice the size;
        // a recycled Txn keeps the larger ring.
        const std::uint32_t cap = t.queuedCap == 0 ? 1 : 2 * t.queuedCap;
        auto grown = std::make_unique<Message[]>(cap);
        for (std::uint32_t i = 0; i < t.queuedCap; ++i)
            grown[i] = t.queued[(t.queuedHead + i) % t.queuedCap];
        t.queued = std::move(grown);
        t.queuedCap = cap;
        t.queuedHead = 0;
    }
    t.queued[(t.queuedHead + t.queuedCount) % t.queuedCap] = msg;
    ++t.queuedCount;
}

} // namespace spmcoh
