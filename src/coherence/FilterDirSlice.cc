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
      slots(p_.entriesPerSlice), lru(p_.entriesPerSlice), stats(name)
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

std::int32_t
FilterDirSlice::firstSlot(SlotState st) const
{
    for (std::size_t i = 0; i < slots.size(); ++i)
        if (slots[i].st == st)
            return static_cast<std::int32_t>(i);
    return -1;
}

void
FilterDirSlice::handle(const Message &msg)
{
    switch (msg.type) {
      case MsgType::FilterCheck:
      case MsgType::FilterInval: {
        Pending r{0, net.msgPool().acquire(msg)};
        if (enter(r))
            net.events().scheduleIn(p.lookupLatency,
                                    [this, r] { lookup(r); });
        break;
      }
      case MsgType::FilterEvictNotify: onEvictNotify(msg); break;
      case MsgType::FilterInvalFwdAck: onFwdAck(msg); break;
      default:
        panic("FilterDirSlice: unexpected message");
    }
}

FilterDirSlice::Op *
FilterDirSlice::busyOp(Addr base)
{
    for (const auto &[b, id] : busy)
        if (b == base)
            return ops.find(id);
    return nullptr;
}

void
FilterDirSlice::park(Op &op, const Pending &r)
{
    op.waiting.push_back(r);
    ++stQueuedOps;
}

FilterDirSlice::Batch
FilterDirSlice::takeBatch()
{
    if (spareBatches.empty())
        return {};
    Batch batch = std::move(spareBatches.back());
    spareBatches.pop_back();
    return batch;
}

void
FilterDirSlice::recycle(Batch &batch)
{
    batch.clear();
    spareBatches.push_back(std::move(batch));
}

bool
FilterDirSlice::enter(Pending &r)
{
    const Message &req = *r.msg;
    if (req.type == MsgType::FilterCheck) {
        ++stChecks;
        r.base = fab.config.base(req.addr);
    } else {
        ++stMapInvalidations;
        r.base = req.addr;
    }
    if (Op *op = busyOp(r.base)) {
        park(*op, r);
        return false;
    }
    return true;
}

void
FilterDirSlice::reenter(Batch &batch)
{
    // Nothing here starts a broadcast, so the busy list is fixed for
    // the whole loop.
    std::size_t kept = 0;
    for (Pending r : batch)
        if (enter(r))
            batch[kept++] = r;
    batch.resize(kept);
    if (batch.empty()) {
        recycle(batch);
        return;
    }
    net.events().scheduleIn(p.lookupLatency,
            [this, batch = std::move(batch)]() mutable {
        for (const Pending &r : batch)
            lookup(r);
        recycle(batch);
    });
}

void
FilterDirSlice::lookup(const Pending &r)
{
    if (r.msg->type == MsgType::FilterInval) {
        // A map-invalidation that found its base free on entry goes
        // ahead; only checks look at the busy list again.
        invalStep(r.base, *r.msg);
    } else if (Op *op = busyOp(r.base)) {
        // A broadcast for the base started after the check entered,
        // maybe for a request ahead of it in the same batch.
        park(*op, r);
        return;
    } else {
        checkStep(r.base, *r.msg);
    }
    net.msgPool().release(r.msg);
}

FilterDirSlice::Op &
FilterDirSlice::openOp(Step step, Addr base, CoreId requestor,
                       std::uint64_t aux)
{
    const std::uint64_t id = ops.acquire();
    Op &op = *ops.find(id);
    op.id = id;
    op.step = step;
    op.base = base;
    op.requestor = requestor;
    op.aux = aux;
    op.pendingAcks = 0;
    return op;
}

void
FilterDirSlice::arm(Op &op, Step step, Tick delay)
{
    op.step = step;
    net.events().scheduleIn(delay, [this, id = op.id] { run(id); });
}

void
FilterDirSlice::run(std::uint64_t id)
{
    Op &op = *ops.find(id);
    switch (op.step) {
      case Step::Probe:
        probe(op);
        return;
      case Step::Nack:
        // Informational: the filter must not cache the base.
        conclude(op, MsgType::FilterCheckNack, op.addr);
        return;
      case Step::Install:
        install(op);
        return;
      case Step::Drain:
      case Step::Inval:
        panic("FilterDirSlice: acks finish this step, not an event");
    }
}

void
FilterDirSlice::checkStep(Addr base, const Message &req)
{
    if (const std::int32_t i = findSlot(base, SlotState::Valid); i >= 0) {
        // Known unmapped: add the sharer and ACK (Fig. 6b step 2).
        ++stCheckHits;
        Slot &s = slots[static_cast<std::size_t>(i)];
        s.sharers |= coreBit(req.requestor);
        lru.touch(static_cast<std::uint32_t>(i));
        sendToCore(req.requestor, MsgType::FilterCheckAck, req.addr,
                   req.aux);
        return;
    }
    // No information: broadcast. Account every probe and response
    // packet in one tally; simulate the exchange as one aggregate
    // event at the worst-case probe arrival.
    ++stBroadcasts;
    Op &op = openOp(Step::Probe, base, req.requestor, req.aux);
    op.addr = req.addr;
    op.isWrite = req.isWrite;
    op.wdata = req.data.read64(0);
    busy.emplace_back(base, op.id);
    net.noc().accountBroadcast(tile, req.requestor, net.cores(),
                               TrafficClass::CohProt, ctrlPacketBytes);
    arm(op, Step::Probe, fanOutLatency + p.probeLatency);
}

void
FilterDirSlice::probe(Op &op)
{
    // Every other core's SPMDir is probed; the per-core probe
    // counters are derived from this tally after the run.
    ++fab.broadcastsBy[op.requestor];
    // Evaluate the SPMDir CAMs at probe-arrival time: the lowest-id
    // non-requestor owner serves. A core whose signature rules the
    // base out cannot own it. The verdict is acted on when the last
    // response is back, a fan-out latency later.
    for (CoreId c = 0; c < net.cores(); ++c) {
        const SpmDir &dir = fab.ctrls[c]->spmDirRef();
        if (c == op.requestor || !dir.mayHold(op.base))
            continue;
        if (auto idx = dir.lookup(op.base)) {
            // Fig. 5d: the owner's SPM serves the access directly,
            // one cycle later.
            ++stRemoteHits;
            const std::uint32_t spm_off = static_cast<std::uint32_t>(
                *idx * fab.config.bytes() + fab.config.offset(op.addr));
            net.events().scheduleIn(1,
                    [own = fab.ctrls[c], addr = op.addr, aux = op.aux,
                     wdata = op.wdata, spm_off, requestor = op.requestor,
                     is_write = op.isWrite] {
                own->serveSpm(spm_off, addr, aux, requestor, is_write,
                              wdata);
            });
            arm(op, Step::Nack, fanOutLatency);
            return;
        }
    }
    // Fig. 5c: nobody maps it; install and ACK.
    arm(op, Step::Install, fanOutLatency);
}

void
FilterDirSlice::install(Op &op)
{
    // Another transaction may have installed the base meanwhile.
    if (std::int32_t i = findSlot(op.base, SlotState::Valid); i >= 0) {
        slots[static_cast<std::size_t>(i)].sharers |=
            coreBit(op.requestor);
        conclude(op, MsgType::FilterCheckAck, op.base);
        return;
    }
    if (std::int32_t i = firstSlot(SlotState::Free); i >= 0) {
        finishInstall(op, static_cast<std::uint32_t>(i));
        return;
    }
    // Evict the pseudo-LRU valid victim (else the lowest valid one);
    // its sharers must drop the base from their filters before the
    // slot is recycled.
    std::int32_t victim = static_cast<std::int32_t>(lru.victim());
    if (slots[static_cast<std::size_t>(victim)].st != SlotState::Valid)
        victim = firstSlot(SlotState::Valid);
    if (victim < 0) {
        // Everything is draining (pathological); retry shortly. The
        // base stays serialized through the retry.
        ++stInsertRetries;
        arm(op, Step::Install, p.retryDelay);
        return;
    }
    ++stEvictions;
    Slot &v = slots[static_cast<std::size_t>(victim)];
    v.st = SlotState::Draining;
    op.step = Step::Drain;
    op.victim = static_cast<std::uint32_t>(victim);
    invalidateSharers(op, v.base, v.sharers);
    if (op.pendingAcks == 0)
        finishInstall(op, op.victim);
}

void
FilterDirSlice::finishInstall(Op &op, std::uint32_t slot)
{
    slots[slot] = Slot{SlotState::Valid, op.base, coreBit(op.requestor)};
    lru.touch(slot);
    ++stInserts;
    conclude(op, MsgType::FilterCheckAck, op.base);
}

void
FilterDirSlice::invalidateSharers(Op &op, Addr base,
                                  std::uint64_t sharers)
{
    forEachCore(sharers, [&](CoreId c) {
        ++op.pendingAcks;
        sendToCore(c, MsgType::FilterInvalFwd, base, op.id);
    });
}

void
FilterDirSlice::conclude(Op &op, MsgType reply, Addr addr)
{
    // The reply goes out before the re-entry: a local delivery can
    // tie with it.
    sendToCore(op.requestor, reply, addr, op.aux);
    // The parked requests re-enter together, in arrival order, one
    // cycle later; the op keeps a recycled batch's capacity.
    if (!op.waiting.empty()) {
        net.events().scheduleIn(1,
                [this, parked = std::exchange(op.waiting, takeBatch())]()
                    mutable { reenter(parked); });
    }
    for (auto &b : busy) {
        if (b.second == op.id) {
            b = busy.back();
            busy.pop_back();
            break;
        }
    }
    ops.release(op.id);
}

void
FilterDirSlice::invalStep(Addr base, const Message &req)
{
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
        sendToCore(req.requestor, MsgType::FilterInvalDone, base,
                   req.aux);
        return;
    }
    ++stSharerInvalidations;
    invalidateSharers(openOp(Step::Inval, base, req.requestor, req.aux),
                      base, sharers);
}

void
FilterDirSlice::onEvictNotify(const Message &msg)
{
    ++stEvictNotifies;
    const std::int32_t i = findSlot(msg.addr, SlotState::Valid);
    if (i >= 0)
        slots[static_cast<std::size_t>(i)].sharers &=
            ~coreBit(msg.requestor);
}

void
FilterDirSlice::onFwdAck(const Message &msg)
{
    Op *op = ops.find(msg.aux);
    if (!op)
        panic("FilterDirSlice: ack for unknown op");
    if (op->pendingAcks == 0)
        panic("FilterDirSlice: ack underflow");
    if (--op->pendingAcks != 0)
        return;
    if (op->step == Step::Drain)
        finishInstall(*op, op->victim);
    else
        conclude(*op, MsgType::FilterInvalDone, 0);
}

void
FilterDirSlice::sendToCore(CoreId c, MsgType t, Addr addr,
                           std::uint64_t aux)
{
    Message m;
    m.type = t;
    m.addr = addr;
    m.requestor = c;
    m.aux = aux;
    m.cls = TrafficClass::CohProt;
    net.send(tile, Endpoint::Coh, c, m, TrafficClass::CohProt);
}

} // namespace spmcoh
