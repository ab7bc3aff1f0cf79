/**
 * @file
 * Memory controller message handling.
 */

#include "mem/MainMemory.hh"

#include "mem/MemNet.hh"

namespace spmcoh
{

void
MemCtrl::handle(const Message &msg)
{
    // The line is read or written now; only the reply waits.
    Message resp;
    switch (msg.type) {
      case MsgType::MemRead:
        ++stReads;
        resp.type = MsgType::MemReadResp;
        resp.hasData = true;
        resp.data = mem.readLine(msg.addr);
        break;
      case MsgType::MemWrite:
        ++stWrites;
        mem.writeLine(msg.addr, msg.data);
        resp.type = MsgType::MemWriteAck;
        break;
      default:
        panic("MemCtrl: unexpected message type");
    }
    resp.addr = msg.addr;
    resp.requestor = msg.requestor;
    resp.aux = msg.aux;
    resp.cls = msg.cls;
    // The response is parked in the message pool so the delayed-send
    // closures stay inline-sized.
    Message *pm = net.msgPool().acquire(resp);
    const CoreId dst = msg.src;
    if (!pool || pool->backingChip(msg.addr) == myChip) {
        replyAt(serviceSlot(), pm, dst);
        return;
    }
    // A line the far pool backs pays the pool's shared queue and
    // latency instead of the local DRAM slot. The queue is shared by
    // every controller on every chip and reserved from a same-tick
    // event, so requests queue in event order.
    const bool is_write = msg.type == MsgType::MemWrite;
    const Tick at = eq.now();
    eq.schedule(at, [this, pm, dst, at, is_write] {
        const Tick done = pool->serviceAt(at, is_write);
        if (HomeAgent *ha = net.homeAgent())
            ha->notePool(is_write);
        replyAt(done, pm, dst);
    });
}

void
MemCtrl::replyAt(Tick when, Message *pm, CoreId dst)
{
    eq.schedule(when, [this, pm, dst] {
        net.send(tile, Endpoint::Dir, dst, *pm, pm->cls);
        net.msgPool().release(pm);
    });
}

} // namespace spmcoh
