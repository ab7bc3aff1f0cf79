/**
 * @file
 * FilterDir slice implementation.
 */

#include "coherence/FilterDirSlice.hh"

#include "coherence/CohController.hh"

namespace spmcoh
{

FilterDirSlice::FilterDirSlice(MemNet &net_, CohFabric &fab_,
                               CoreId tile_, const FilterDirParams &p_,
                               const std::string &name)
    : net(net_), fab(fab_), tile(tile_), p(p_),
      fanOutLatency(net_.noc().maxLatencyFrom(tile_, ctrlPacketBytes)),
      slots(p_.entriesPerSlice), lru(p_.entriesPerSlice), stats(name),
      stChecks(stats.counter("checks")),
      stCheckHits(stats.counter("checkHits")),
      stBroadcasts(stats.counter("broadcasts")),
      stRemoteHits(stats.counter("remoteHits")),
      stQueuedOps(stats.counter("queuedOps")),
      stInserts(stats.counter("inserts")),
      stInsertRetries(stats.counter("insertRetries")),
      stEvictions(stats.counter("evictions")),
      stMapInvalidations(stats.counter("mapInvalidations")),
      stSharerInvalidations(stats.counter("sharerInvalidations")),
      stEvictNotifies(stats.counter("evictNotifies"))
{
}

bool
FilterDirSlice::tracks(Addr base) const
{
    return findSlot(base, SlotState::Valid) >= 0;
}

std::uint64_t
FilterDirSlice::sharersOf(Addr base) const
{
    const std::int32_t i = findSlot(base, SlotState::Valid);
    return i < 0 ? 0 : slots[static_cast<std::size_t>(i)].sharers;
}

std::uint32_t
FilterDirSlice::validEntries() const
{
    std::uint32_t n = 0;
    for (const Slot &s : slots)
        n += s.st == SlotState::Valid;
    return n;
}

std::int32_t
FilterDirSlice::findSlot(Addr base, SlotState st) const
{
    for (std::size_t i = 0; i < slots.size(); ++i)
        if (slots[i].st == st && slots[i].base == base)
            return static_cast<std::int32_t>(i);
    return -1;
}

void
FilterDirSlice::handle(const Message &msg)
{
    switch (msg.type) {
      case MsgType::FilterCheck:      onFilterCheck(msg); break;
      case MsgType::FilterInval:      onFilterInval(msg); break;
      case MsgType::FilterEvictNotify: onEvictNotify(msg); break;
      case MsgType::FilterInvalFwdAck: onFwdAck(msg); break;
      default:
        panic("FilterDirSlice: unexpected message");
    }
}

FilterDirSlice::BusyBase *
FilterDirSlice::findBusy(Addr base)
{
    for (BusyBase &b : busyBases)
        if (b.base == base)
            return &b;
    return nullptr;
}

void
FilterDirSlice::markBusy(Addr base)
{
    // Reuse a released entry (and its queue's capacity) if any.
    if (BusyBase *b = findBusy(idleBase)) {
        b->base = base;
        return;
    }
    busyBases.push_back(BusyBase{base, {}});
}

bool
FilterDirSlice::enqueueIfBusy(Addr base, const Message &msg)
{
    BusyBase *b = findBusy(base);
    if (!b)
        return false;
    b->waiting.push_back(net.msgPool().acquire(msg));
    ++stQueuedOps;
    return true;
}

void
FilterDirSlice::releaseBase(Addr base)
{
    BusyBase *b = findBusy(base);
    if (!b)
        panic("FilterDirSlice: releasing idle base");
    // Re-inject queued operations in arrival order. Scheduling runs
    // no handler, so the entry cannot change under the loop.
    for (Message *pm : b->waiting) {
        net.events().scheduleIn(1, [this, pm] {
            handle(*pm);
            net.msgPool().release(pm);
        });
    }
    b->waiting.clear();
    b->base = idleBase;
}

void
FilterDirSlice::onFilterCheck(const Message &msg)
{
    ++stChecks;
    const Addr base = fab.config.base(msg.addr);
    if (enqueueIfBusy(base, msg))
        return;
    Message *pm = net.msgPool().acquire(msg);
    net.events().scheduleIn(p.lookupLatency, [this, pm, base] {
        const Message &req = *pm;
        if (enqueueIfBusy(base, req)) {
            // A broadcast started while we looked up.
            net.msgPool().release(pm);
            return;
        }
        const std::int32_t i = findSlot(base, SlotState::Valid);
        if (i >= 0) {
            // Known unmapped: add the sharer and ACK (Fig. 6b step 2).
            ++stCheckHits;
            Slot &s = slots[static_cast<std::size_t>(i)];
            s.sharers |= bit(req.requestor);
            lru.touch(static_cast<std::uint32_t>(i));
            sendToCore(req.requestor, MsgType::FilterCheckAck,
                       req.addr, req.aux);
        } else {
            broadcastProbe(req, base);
        }
        net.msgPool().release(pm);
    });
}

void
FilterDirSlice::broadcastProbe(const Message &msg, Addr base)
{
    ++stBroadcasts;
    markBusy(base);

    // Account every probe and response packet in one tally; simulate
    // the exchange as one aggregate event at the worst-case probe
    // arrival time.
    net.noc().accountBroadcast(tile, msg.requestor, net.cores(),
                               TrafficClass::CohProt, ctrlPacketBytes);
    const Tick probe_arrive = fanOutLatency + p.probeLatency;

    Message *pm = net.msgPool().acquire(msg);
    net.events().scheduleIn(probe_arrive,
                            [this, pm, base, resp_delay = fanOutLatency] {
        const Message &req = *pm;
        // Every other core's SPMDir is probed; the per-core probe
        // counters are derived from this tally after the run.
        ++fab.broadcastsBy[req.requestor];
        // Evaluate the SPMDir CAMs at probe-arrival time: the
        // lowest-id non-requestor owner serves. A core whose
        // signature rules the base out cannot own it.
        CoreId owner = invalidCore;
        std::uint32_t buf_idx = 0;
        for (CoreId c = 0; c < net.cores(); ++c) {
            const SpmDir &dir = fab.ctrls[c]->spmDirRef();
            if (c == req.requestor || !dir.mayHold(base))
                continue;
            if (auto idx = dir.lookup(base)) {
                owner = c;
                buf_idx = *idx;
                break;
            }
        }
        if (owner != invalidCore) {
            // Fig. 5d: a remote SPM serves the access directly.
            ++stRemoteHits;
            const std::uint32_t spm_off = static_cast<std::uint32_t>(
                buf_idx * fab.config.bytes() +
                fab.config.offset(req.addr));
            const std::uint8_t size =
                static_cast<std::uint8_t>(req.aux & 0xff);
            // The owner's SPM serves the access one cycle later.
            net.events().scheduleIn(1,
                    [this, own = owner, spm_off, size,
                     addr = req.addr, aux = req.aux,
                     requestor = req.requestor,
                     is_write = req.isWrite,
                     wdata = req.data.read64(0)] {
                Spm &rspm = fab.ctrls[own]->spmRef();
                Message r;
                r.addr = addr;
                r.aux = aux;
                r.requestor = requestor;
                r.cls = TrafficClass::CohProt;
                if (is_write) {
                    rspm.write(spm_off, size, wdata);
                    r.type = MsgType::RemoteSpmStAck;
                } else {
                    r.type = MsgType::RemoteSpmData;
                    r.hasData = true;
                    r.data.write64(0, rspm.read(spm_off, size));
                }
                net.send(own, Endpoint::Coh, requestor, r,
                         TrafficClass::CohProt);
            });
            // Informational NACK: the filter must not cache the base.
            net.events().scheduleIn(resp_delay,
                    [this, base, requestor = req.requestor,
                     addr = req.addr, aux = req.aux] {
                sendToCore(requestor, MsgType::FilterCheckNack,
                           addr, aux);
                releaseBase(base);
            });
        } else {
            // Fig. 5c: nobody maps it; install and ACK after all
            // NACK responses are in.
            net.events().scheduleIn(resp_delay,
                    [this, base, requestor = req.requestor,
                     aux = req.aux] {
                // insertAndAck releases the base serialization once
                // the install (and any victim drain) completes.
                insertAndAck(base, requestor, aux);
            });
        }
        net.msgPool().release(pm);
    });
}

void
FilterDirSlice::insertAndAck(Addr base, CoreId requestor,
                             std::uint64_t aux)
{
    // Another transaction may have installed the base meanwhile.
    if (std::int32_t i = findSlot(base, SlotState::Valid); i >= 0) {
        slots[static_cast<std::size_t>(i)].sharers |= bit(requestor);
        sendToCore(requestor, MsgType::FilterCheckAck, base, aux);
        releaseBase(base);
        return;
    }
    // Prefer a free slot.
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].st == SlotState::Free) {
            slots[i] = Slot{SlotState::Valid, base, bit(requestor)};
            lru.touch(static_cast<std::uint32_t>(i));
            ++stInserts;
            sendToCore(requestor, MsgType::FilterCheckAck, base, aux);
            releaseBase(base);
            return;
        }
    }
    // Evict the pseudo-LRU valid victim; its sharers must drop the
    // base from their filters before the slot is recycled.
    std::uint32_t victim = lru.victim();
    if (slots[victim].st != SlotState::Valid) {
        bool found = false;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].st == SlotState::Valid) {
                victim = static_cast<std::uint32_t>(i);
                found = true;
                break;
            }
        }
        if (!found) {
            // Everything is draining (pathological); retry shortly.
            // The base stays serialized through the retry and is
            // released by whichever insertAndAck path completes.
            ++stInsertRetries;
            net.events().scheduleIn(p.retryDelay,
                                    [this, base, requestor, aux] {
                insertAndAck(base, requestor, aux);
            });
            return;
        }
    }
    ++stEvictions;
    // The base stays serialized (busy) until the victim drain
    // completes; onFwdAck releases it.
    Slot &v = slots[victim];
    v.st = SlotState::Draining;
    const std::uint64_t op_id = nextOp++;
    PendingOp op;
    op.kind = PendingOp::Kind::Drain;
    op.slot = victim;
    op.newBase = base;
    op.requestor = requestor;
    op.aux = aux;
    std::uint64_t sharers = v.sharers;
    for (CoreId c = 0; sharers != 0; ++c, sharers >>= 1) {
        if (sharers & 1) {
            ++op.pendingAcks;
            sendToCore(c, MsgType::FilterInvalFwd, v.base, op_id);
        }
    }
    if (op.pendingAcks == 0) {
        v = Slot{SlotState::Valid, base, bit(requestor)};
        lru.touch(victim);
        ++stInserts;
        sendToCore(requestor, MsgType::FilterCheckAck, base, aux);
        releaseBase(base);
        return;
    }
    ops.emplace(op_id, std::move(op));
}

void
FilterDirSlice::onFilterInval(const Message &msg)
{
    ++stMapInvalidations;
    if (enqueueIfBusy(msg.addr, msg))
        return;
    net.events().scheduleIn(p.lookupLatency,
            [this, base = msg.addr, requestor = msg.requestor,
             aux = msg.aux] {
        std::uint64_t sharers = 0;
        for (Slot &s : slots) {
            if (s.base == base && (s.st == SlotState::Valid ||
                                   s.st == SlotState::Draining)) {
                sharers |= s.sharers;
                if (s.st == SlotState::Valid)
                    s = Slot{};  // entry removed (Fig. 6a)
            }
        }
        if (sharers == 0) {
            sendToCore(requestor, MsgType::FilterInvalDone, base,
                       aux);
            return;
        }
        ++stSharerInvalidations;
        const std::uint64_t op_id = nextOp++;
        PendingOp op;
        op.kind = PendingOp::Kind::MapInval;
        op.requestor = requestor;
        op.aux = aux;
        std::uint64_t m = sharers;
        for (CoreId c = 0; m != 0; ++c, m >>= 1) {
            if (m & 1) {
                ++op.pendingAcks;
                sendToCore(c, MsgType::FilterInvalFwd, base, op_id);
            }
        }
        ops.emplace(op_id, std::move(op));
    });
}

void
FilterDirSlice::onEvictNotify(const Message &msg)
{
    ++stEvictNotifies;
    const std::int32_t i = findSlot(msg.addr, SlotState::Valid);
    if (i >= 0)
        slots[static_cast<std::size_t>(i)].sharers &=
            ~bit(msg.requestor);
}

void
FilterDirSlice::onFwdAck(const Message &msg)
{
    auto it = ops.find(msg.aux);
    if (it == ops.end())
        panic("FilterDirSlice: ack for unknown op");
    PendingOp &op = it->second;
    if (op.pendingAcks == 0)
        panic("FilterDirSlice: ack underflow");
    if (--op.pendingAcks != 0)
        return;
    const PendingOp done = std::move(it->second);
    ops.erase(it);
    if (done.kind == PendingOp::Kind::Drain) {
        slots[done.slot] =
            Slot{SlotState::Valid, done.newBase, bit(done.requestor)};
        lru.touch(done.slot);
        ++stInserts;
        sendToCore(done.requestor, MsgType::FilterCheckAck,
                   done.newBase, done.aux);
        releaseBase(done.newBase);
    } else {
        sendToCore(done.requestor, MsgType::FilterInvalDone, 0,
                   done.aux);
    }
}

void
FilterDirSlice::sendToCore(CoreId c, MsgType t, Addr addr,
                           std::uint64_t aux, bool has_data,
                           std::uint64_t value)
{
    Message m;
    m.type = t;
    m.addr = addr;
    m.requestor = c;
    m.aux = aux;
    m.cls = TrafficClass::CohProt;
    if (has_data) {
        m.hasData = true;
        m.data.write64(0, value);
    }
    net.send(tile, Endpoint::Coh, c, m, TrafficClass::CohProt);
}

} // namespace spmcoh
