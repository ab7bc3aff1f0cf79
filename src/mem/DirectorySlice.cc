/**
 * @file
 * Directory slice implementation: blocking MOESI state machine.
 */

#include "mem/DirectorySlice.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace spmcoh
{

DirectorySlice::DirectorySlice(MemNet &net_, CoreId tile_,
                               const DirSliceParams &p_,
                               const std::string &name,
                               const CoherenceProtocol &proto_)
    : net(net_), tile(tile_), proto(proto_), p(p_),
      l2(p_.l2SizeBytes / lineBytes / p_.l2Ways, p_.l2Ways,
         lineShift + log2i(net_.cores())),
      dir(p_.dirEntries / p_.dirWays, p_.dirWays,
          lineShift + log2i(net_.cores())),
      stats(name),
      stGetS(stats.counter("getS")),
      stGetX(stats.counter("getX")),
      stUpdX(stats.counter("updX")),
      stPutM(stats.counter("putM")),
      stPutS(stats.counter("putS")),
      stPutE(stats.counter("putE")),
      stIfetch(stats.counter("ifetch")),
      stDmaRead(stats.counter("dmaRead")),
      stDmaWrite(stats.counter("dmaWrite")),
      stQueuedRequests(stats.counter("queuedRequests")),
      stFwdGetS(stats.counter("fwdGetS")),
      stFwdGetX(stats.counter("fwdGetX")),
      stInvalidationsSent(stats.counter("invalidationsSent")),
      stUpdatesSent(stats.counter("updatesSent")),
      stL2Hits(stats.counter("l2Hits")),
      stL2Misses(stats.counter("l2Misses")),
      stL2DirtyEvictions(stats.counter("l2DirtyEvictions")),
      stMemWbForwards(stats.counter("memWbForwards")),
      stMemWriteAcks(stats.counter("memWriteAcks")),
      stAllocRetries(stats.counter("allocRetries")),
      stRecalls(stats.counter("recalls")),
      stStalePuts(stats.counter("stalePuts")),
      txnLatency(stats.histogram(
          "txnLatency", {16, 32, 64, 128, 256, 512, 1024, 2048})),
      txnOccupancy(stats.histogram("txnOccupancy",
                                   {1, 2, 4, 8, 16, 24, 32, 48}))
{
}

DirectorySlice::Txn *
DirectorySlice::acquireTxn()
{
    if (txnFree.empty()) {
        txnStore.push_back(std::make_unique<Txn>());
        return txnStore.back().get();
    }
    Txn *t = txnFree.back();
    txnFree.pop_back();
    return t;
}

void
DirectorySlice::releaseTxn(Txn *t)
{
    t->kind = TxnKind::Request;
    t->startedAt = 0;
    t->queued.clear();
    t->pendingAcks = 0;
    t->wantData = false;
    t->haveData = false;
    t->dataDirty = false;
    t->onComplete = nullptr;
    t->awaitingUnblock = false;
    txnFree.push_back(t);
}

std::optional<DirectorySlice::EntrySnapshot>
DirectorySlice::peekEntry(Addr line_addr) const
{
    const DirEntry *de = dir.peek(line_addr);
    if (!de)
        return std::nullopt;
    return EntrySnapshot{de->state, de->owner, de->sharers};
}

static const char *trace_env = std::getenv("SPMCOH_TRACE_LINE");
static const unsigned long long trace_line =
    trace_env ? std::stoull(trace_env, nullptr, 0) : 0;

void
DirectorySlice::handle(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    if (trace_line && la == trace_line)
        std::fprintf(stderr, "[dir%u t%llu] msg type=%d src=%u req=%u hasData=%d dirty=%d\n",
            tile, (unsigned long long)net.events().now(), int(msg.type), msg.src, msg.requestor, msg.hasData, msg.dirty);
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
            (*t)->queued.push_back(msg);
            ++stQueuedRequests;
        } else {
            startTxn(msg);
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
DirectorySlice::startTxn(const Message &req)
{
    const Addr la = lineAlign(req.addr);
    Txn *t = acquireTxn();
    t->startedAt = net.events().now();
    t->req = req;
    busy.insert(la, t);
    sampleTxnOccupancy();
    net.events().scheduleIn(p.dirLatency, [this, la] { dispatch(la); });
}

void
DirectorySlice::dispatch(Addr la)
{
    Txn &t = *busy.at(la, "DirectorySlice: dispatch for an idle line");
    switch (t.req.type) {
      case MsgType::GetS:      handleGetS(la, t); break;
      case MsgType::GetX:      handleGetX(la, t); break;
      case MsgType::UpdX:      handleUpdX(la, t); break;
      case MsgType::PutM:      handlePutM(la, t); break;
      case MsgType::PutS:
      case MsgType::PutE:      handlePutShared(la, t); break;
      case MsgType::IfetchGet: handleIfetch(la, t); break;
      case MsgType::DmaRead:   handleDmaRead(la, t); break;
      case MsgType::DmaWrite:  handleDmaWrite(la, t); break;
      default:
        panic("DirectorySlice: bad transaction request");
    }
}

void
DirectorySlice::handleGetS(Addr la, Txn &t)
{
    ++stGetS;
    const CoreId r = t.req.requestor;
    const TrafficClass cls = t.req.cls;
    Txn *tp = &t;
    DirEntry *de = dir.lookup(la);

    if (de && (de->state == DirState::Excl ||
               de->state == DirState::Owned)) {
        // Freshest copy is at the owner: forward.
        ++stFwdGetS;
        Message f;
        f.type = MsgType::FwdGetS;
        f.addr = la;
        f.requestor = r;
        f.cls = cls;
        net.send(tile, Endpoint::L1D, de->owner, f, cls);
        t.wantData = true;
        t.onComplete = [this, tp, la, r, cls] {
            Txn &tx = *tp;
            DirEntry *e = dir.lookup(la);
            if (!e)
                panic("DirectorySlice: entry vanished during GetS");
            if (tx.dataDirty && proto.ownerKeepsDirtyOnGetS()) {
                // Owner keeps the dirty line: Excl -> Owned.
                e->state = DirState::Owned;
                e->sharers |= bit(r);
            } else if (e->state == DirState::Excl) {
                // Owner downgraded (E/M -> S); the L2 slice absorbs
                // the data, dirty when the protocol has no Owned
                // state to park a dirty line in.
                e->sharers = bit(e->owner) | bit(r);
                e->owner = invalidCore;
                e->state = DirState::Shared;
                l2Insert(la, tx.data, tx.dataDirty);
            } else {
                e->sharers |= bit(r);
            }
            respond(r, Endpoint::L1D, MsgType::DataS, la, &tx.data,
                    cls);
            tx.awaitingUnblock = true;
        };
        return;
    }

    if (de) {
        // Shared: L2/memory data is valid.
        de->sharers |= bit(r);
        t.onComplete = [this, tp, la, r, cls] {
            Txn &tx = *tp;
            respond(r, Endpoint::L1D, MsgType::DataS, la, &tx.data,
                    cls);
            tx.awaitingUnblock = true;
        };
        fetchData(la, cls);
        return;
    }

    // Untracked line: grant Exclusive.
    DirEntry ne;
    ne.state = DirState::Excl;
    ne.owner = r;
    if (!allocEntry(la, ne)) {
        ++stAllocRetries;
        net.events().scheduleIn(p.retryDelay,
                                [this, la] { dispatch(la); });
        return;
    }
    t.onComplete = [this, tp, la, r, cls] {
        Txn &tx = *tp;
        respond(r, Endpoint::L1D, MsgType::DataE, la, &tx.data, cls);
        tx.awaitingUnblock = true;
    };
    fetchData(la, cls);
}

void
DirectorySlice::handleGetX(Addr la, Txn &t)
{
    ++stGetX;
    const CoreId r = t.req.requestor;
    const TrafficClass cls = t.req.cls;
    Txn *tp = &t;
    DirEntry *de = dir.lookup(la);

    if (!de) {
        DirEntry ne;
        ne.state = DirState::Excl;
        ne.owner = r;
        if (!allocEntry(la, ne)) {
            ++stAllocRetries;
            net.events().scheduleIn(p.retryDelay,
                                    [this, la] { dispatch(la); });
            return;
        }
        t.onComplete = [this, tp, la, r, cls] {
            Txn &tx = *tp;
            respond(r, Endpoint::L1D, MsgType::DataM, la, &tx.data,
                    cls);
            tx.awaitingUnblock = true;
        };
        fetchData(la, cls);
        return;
    }

    if (de->state == DirState::Excl) {
        if (de->owner == r)
            panic("DirectorySlice: GetX from exclusive owner: addr " +
                  std::to_string(la) + " core " + std::to_string(r));
        ++stFwdGetX;
        Message f;
        f.type = MsgType::FwdGetX;
        f.addr = la;
        f.requestor = r;
        f.cls = cls;
        net.send(tile, Endpoint::L1D, de->owner, f, cls);
        t.wantData = true;
        t.onComplete = [this, tp, la, r, cls] {
            Txn &tx = *tp;
            DirEntry *e = dir.lookup(la);
            e->state = DirState::Excl;
            e->owner = r;
            e->sharers = 0;
            respond(r, Endpoint::L1D, MsgType::DataM, la, &tx.data,
                    cls);
            tx.awaitingUnblock = true;
        };
        return;
    }

    // Shared or Owned: invalidate everyone except the requestor.
    std::uint64_t targets = de->sharers;
    if (de->owner != invalidCore)
        targets |= bit(de->owner);
    targets &= ~bit(r);
    const bool owner_supplies =
        de->state == DirState::Owned && de->owner != r &&
        de->owner != invalidCore;
    for (CoreId c = 0; targets != 0; ++c, targets >>= 1) {
        if (targets & 1) {
            sendInv(c, la, r, TrafficClass::WbRepl);
            ++t.pendingAcks;
        }
    }
    if (t.req.hasData && t.req.dirty) {
        // Upgrade from O shipped the dirty line with the request.
        t.data = t.req.data;
        t.haveData = true;
        t.wantData = true;
    } else if (owner_supplies) {
        t.wantData = true;   // dirty data arrives via InvAckData
    } else {
        fetchData(la, cls);
    }
    t.onComplete = [this, tp, la, r, cls] {
        Txn &tx = *tp;
        DirEntry *e = dir.lookup(la);
        e->state = DirState::Excl;
        e->owner = r;
        e->sharers = 0;
        respond(r, Endpoint::L1D, MsgType::DataM, la, &tx.data, cls);
        tx.awaitingUnblock = true;
    };
    checkDone(t);
    return;
}

void
DirectorySlice::handleUpdX(Addr la, Txn &t)
{
    ++stUpdX;
    const CoreId r = t.req.requestor;
    const TrafficClass cls = t.req.cls;
    Txn *tp = &t;
    DirEntry *de = dir.lookup(la);

    if (!de || de->state == DirState::Excl) {
        // Nobody to update: the line is untracked, or one exclusive
        // holder owns it and migrating ownership (the GetX path) is
        // strictly cheaper than an update round. The requestor gets
        // DataM and applies its store locally.
        handleGetX(la, t);
        return;
    }

    // Shared: apply the write at the home slice and push the
    // post-write line to every other sharer (Dragon-style).
    std::uint64_t sharers = de->sharers;
    if (de->owner != invalidCore) {
        // Update-based tables have no Owned state; fold a stray
        // owner into the sharer set defensively.
        sharers |= bit(de->owner);
        de->owner = invalidCore;
    }
    de->state = DirState::Shared;
    de->sharers = sharers | bit(r);
    t.onComplete = [this, tp, la, r, cls] {
        // Stage 1: line data is here; apply the word, refresh the
        // L2 copy, and fan the update out.
        Txn &tx = *tp;
        tx.data.writeN(lineOffset(tx.req.addr),
                       static_cast<std::uint32_t>(tx.req.aux),
                       tx.req.data.read64(0));
        l2Insert(la, tx.data, true);
        DirEntry *e = dir.lookup(la);
        if (!e)
            panic("DirectorySlice: entry vanished during UpdX");
        std::uint64_t targets = e->sharers & ~bit(r);
        for (CoreId c = 0; targets != 0; ++c, targets >>= 1) {
            if (targets & 1) {
                sendUpdate(c, la, r, tx.data, cls);
                ++tx.pendingAcks;
            }
        }
        // Stage 2: every UpdAck is in; hand the post-write line
        // back to the writer, which stays Shared.
        tx.onComplete = [this, tp, la, r, cls] {
            Txn &tx2 = *tp;
            respond(r, Endpoint::L1D, MsgType::UpdData, la, &tx2.data,
                    cls);
            tx2.awaitingUnblock = true;
        };
        checkDone(tx);
    };
    fetchData(la, cls);
}

void
DirectorySlice::handlePutM(Addr la, Txn &t)
{
    ++stPutM;
    const CoreId r = t.req.requestor;
    DirEntry *de = dir.lookup(la);
    if (de && de->owner == r &&
        (de->state == DirState::Excl || de->state == DirState::Owned)) {
        l2Insert(la, t.req.data, true);
        if (de->state == DirState::Owned && de->sharers != 0) {
            de->state = DirState::Shared;
            de->owner = invalidCore;
        } else {
            dir.invalidate(la);
        }
    } else {
        ++stStalePuts;
    }
    respond(r, Endpoint::L1D, MsgType::PutAck, la, nullptr,
            TrafficClass::WbRepl);
    finishTxn(la);
}

void
DirectorySlice::handlePutShared(Addr la, Txn &t)
{
    ++(t.req.type == MsgType::PutE ? stPutE : stPutS);
    const CoreId r = t.req.requestor;
    DirEntry *de = dir.lookup(la);
    if (de) {
        if (t.req.type == MsgType::PutE) {
            if (de->state == DirState::Excl && de->owner == r)
                dir.invalidate(la);
        } else {
            de->sharers &= ~bit(r);
            if (de->owner == invalidCore && de->sharers == 0)
                dir.invalidate(la);
        }
    } else {
        ++stStalePuts;
    }
    respond(r, Endpoint::L1D, MsgType::PutAck, la, nullptr,
            TrafficClass::WbRepl);
    finishTxn(la);
}

void
DirectorySlice::handleIfetch(Addr la, Txn &t)
{
    ++stIfetch;
    const CoreId r = t.req.requestor;
    Txn *tp = &t;
    t.onComplete = [this, tp, la, r] {
        Txn &tx = *tp;
        respond(r, Endpoint::L1I, MsgType::DataS, la, &tx.data,
                TrafficClass::Ifetch);
        tx.awaitingUnblock = true;
    };
    fetchData(la, TrafficClass::Ifetch);
}

void
DirectorySlice::handleDmaRead(Addr la, Txn &t)
{
    ++stDmaRead;
    const CoreId r = t.req.requestor;
    const std::uint64_t tag = t.req.aux;
    Txn *tp = &t;
    DirEntry *de = dir.lookup(la);
    t.onComplete = [this, tp, la, r, tag] {
        Txn &tx = *tp;
        respond(r, Endpoint::Dmac, MsgType::DmaReadResp, la, &tx.data,
                TrafficClass::Dma, tag);
        finishTxn(la);
    };
    if (de && de->owner != invalidCore &&
        (de->state == DirState::Excl || de->state == DirState::Owned)) {
        // Snapshot the freshest copy without disturbing the owner.
        Message f;
        f.type = MsgType::FwdDmaRead;
        f.addr = la;
        f.requestor = r;
        f.cls = TrafficClass::Dma;
        net.send(tile, Endpoint::L1D, de->owner, f, TrafficClass::Dma);
        t.wantData = true;
    } else {
        fetchData(la, TrafficClass::Dma);
    }
}

void
DirectorySlice::handleDmaWrite(Addr la, Txn &t)
{
    ++stDmaWrite;
    const CoreId r = t.req.requestor;
    const std::uint64_t tag = t.req.aux;
    Txn *tp = &t;
    DirEntry *de = dir.lookup(la);
    if (de) {
        std::uint64_t targets = de->sharers;
        if (de->owner != invalidCore)
            targets |= bit(de->owner);
        for (CoreId c = 0; targets != 0; ++c, targets >>= 1) {
            if (targets & 1) {
                sendInv(c, la, r, TrafficClass::WbRepl);
                ++t.pendingAcks;
            }
        }
        dir.invalidate(la);
    }
    l2.invalidate(la);
    t.onComplete = [this, tp, la, r, tag] {
        Txn &tx = *tp;
        // The whole line is overwritten; cached dirty data (if any
        // arrived via InvAckData) is dead.
        Message w;
        w.type = MsgType::MemWrite;
        w.addr = la;
        w.requestor = tile;
        w.hasData = true;
        w.data = tx.req.data;
        w.cls = TrafficClass::Dma;
        MemWb &wb = memWb[la];
        wb.data = tx.req.data;
        ++wb.pending;
        net.send(tile, Endpoint::MemCtrl, net.nearestMemCtrl(tile), w,
                 TrafficClass::Dma);
        respond(r, Endpoint::Dmac, MsgType::DmaWriteAck, la, nullptr,
                TrafficClass::Dma, tag);
        finishTxn(la);
    };
    checkDone(t);
}

void
DirectorySlice::onAck(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    Txn &t = *busy.at(la, "DirectorySlice: ack for idle line");
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
    const Addr la = lineAlign(msg.addr);
    Txn &t = *busy.at(la, "DirectorySlice: forward data for idle line");
    t.data = msg.data;
    t.haveData = true;
    t.dataDirty = msg.dirty;
    checkDone(t);
}

void
DirectorySlice::onMemResp(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    Txn &t = *busy.at(la, "DirectorySlice: memory response for idle line");
    // Cache the fill in the NUCA slice; DMA fills are included by
    // default (the GM "includes caches and main memory", Sec. 2.1)
    // but can be excluded to study pollution.
    if (t.req.type != MsgType::DmaRead || p.dmaFillsL2)
        l2Insert(la, msg.data, false);
    t.data = msg.data;
    t.haveData = true;
    t.dataDirty = false;
    checkDone(t);
}

void
DirectorySlice::fetchData(Addr la, TrafficClass cls)
{
    Txn &t = *busy.at(la, "DirectorySlice: fetch for an idle line");
    Txn *tp = &t;
    t.wantData = true;
    if (const MemWb *wb = memWb.find(la)) {
        // Forward from the in-flight writeback (ordering safety).
        ++stMemWbForwards;
        t.fill = wb->data;
        net.events().scheduleIn(p.l2Latency, [this, tp, la] {
            Txn &tx = *tp;
            tx.data = tx.fill;
            tx.haveData = true;
            checkDone(tx);
        });
        return;
    }
    if (const L2Line *l = l2.lookup(la)) {
        ++stL2Hits;
        t.fill = l->data;
        net.events().scheduleIn(p.l2Latency, [this, tp, la] {
            Txn &tx = *tp;
            tx.data = tx.fill;
            tx.haveData = true;
            checkDone(tx);
        });
    } else {
        ++stL2Misses;
        Message m;
        m.type = MsgType::MemRead;
        m.addr = la;
        m.requestor = tile;
        m.cls = cls;
        net.send(tile, Endpoint::MemCtrl, net.nearestMemCtrl(tile), m,
                 cls);
    }
}

void
DirectorySlice::l2Insert(Addr la, const LineData &d, bool dirty)
{
    if (L2Line *l = l2.lookup(la)) {
        l->data = d;
        l->dirty = l->dirty || dirty;
        return;
    }
    L2Line nl;
    nl.data = d;
    nl.dirty = dirty;
    auto evicted = l2.insert(la, std::move(nl));
    if (evicted && evicted->second.dirty) {
        ++stL2DirtyEvictions;
        Message w;
        w.type = MsgType::MemWrite;
        w.addr = evicted->first;
        w.requestor = tile;
        w.hasData = true;
        w.data = evicted->second.data;
        w.cls = TrafficClass::WbRepl;
        MemWb &wb = memWb[evicted->first];
        wb.data = evicted->second.data;
        ++wb.pending;
        net.send(tile, Endpoint::MemCtrl, net.nearestMemCtrl(tile), w,
                 TrafficClass::WbRepl);
    }
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
        const DirEntry snapshot = *dir.peek(*victim);
        ++stRecalls;
        const Addr va = *victim;
        Txn *rt = acquireTxn();
        rt->kind = TxnKind::Recall;
        rt->startedAt = net.events().now();
        rt->req.type = MsgType::Inv;
        rt->req.addr = va;
        busy.insert(va, rt);
        sampleTxnOccupancy();
        Txn &recall = *rt;
        std::uint64_t targets = snapshot.sharers;
        if (snapshot.owner != invalidCore)
            targets |= bit(snapshot.owner);
        for (CoreId c = 0; targets != 0; ++c, targets >>= 1) {
            if (targets & 1) {
                sendInv(c, va, invalidCore, TrafficClass::WbRepl);
                ++recall.pendingAcks;
            }
        }
        recall.onComplete = [this, rt, va] {
            Txn &tx = *rt;
            if (tx.dataDirty)
                l2Insert(va, tx.data, true);
            finishTxn(va);
        };
        checkDone(recall);
    }
    dir.fillWay(la, *way, e);
    return true;
}

void
DirectorySlice::sendInv(CoreId target, Addr la, CoreId requestor,
                        TrafficClass cls)
{
    ++stInvalidationsSent;
    Message m;
    m.type = MsgType::Inv;
    m.addr = la;
    m.requestor = requestor;
    m.cls = cls;
    net.send(tile, Endpoint::L1D, target, m, cls);
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
    const Addr la = lineAlign(msg.addr);
    Txn **t = busy.find(la);
    if (!t || !(*t)->awaitingUnblock)
        panic("DirectorySlice: unexpected Unblock");
    finishTxn(la);
}

void
DirectorySlice::checkDone(Addr la)
{
    if (Txn **t = busy.find(la))
        checkDone(**t);
}

void
DirectorySlice::checkDone(Txn &t)
{
    if (t.pendingAcks != 0)
        return;
    if (t.wantData && !t.haveData)
        return;
    if (!t.onComplete)
        return;
    auto k = std::move(t.onComplete);
    t.onComplete = nullptr;
    k();
}

void
DirectorySlice::finishTxn(Addr la)
{
    Txn *old = busy.at(la, "DirectorySlice: finish for an idle line");
    busy.erase(la);
    txnLatency.sample(net.events().now() - old->startedAt);
    sampleTxnOccupancy();
    if (!old->queued.empty()) {
        Message next = std::move(old->queued.front());
        old->queued.erase(old->queued.begin());
        std::vector<Message> rest = std::move(old->queued);
        releaseTxn(old);
        startTxn(next);
        busy.at(lineAlign(next.addr),
                "DirectorySlice: restarted line is idle")->queued =
            std::move(rest);
    } else {
        releaseTxn(old);
    }
}

} // namespace spmcoh
