/**
 * @file
 * DMA controller implementation.
 */

#include "spm/Dmac.hh"

namespace spmcoh
{

Dmac::Dmac(MemNet &net_, Spm &spm_, const AddressMap &amap_,
           CoreId core_, const DmacParams &p_, const std::string &name)
    : net(net_), spm(spm_), amap(amap_), core(core_), p(p_),
      tagPending(numTags, 0), stats(name)
{
}

bool
Dmac::enqueue(const DmaCommand &cmd)
{
    if (cmdQueue.size() >= p.cmdQueueEntries) {
        ++stCmdQueueFull;
        return false;
    }
    if (cmd.bytes == 0 || cmd.bytes % lineBytes != 0)
        fatal("Dmac: transfer size must be a line multiple");
    if (lineOffset(cmd.gmAddr) != 0 ||
        lineOffset(cmd.spmAddr) != 0)
        fatal("Dmac: transfer addresses must be line aligned");
    if (!amap.isSpmAddr(cmd.spmAddr) ||
        amap.spmOwner(cmd.spmAddr) != core)
        fatal("Dmac: SPM address must target the local SPM");
    if (cmd.tag >= numTags)
        fatal("Dmac: bad DMA tag");

    ++(cmd.isGet ? stGetCommands : stPutCommands);
    tagPending[cmd.tag] += cmd.bytes / lineBytes;
    cmdQueue.push_back(cmd);
    scheduleIssue();
    return true;
}

void
Dmac::sync(std::uint32_t tag_mask, std::function<void()> cb)
{
    ++stSyncs;
    if (quiescent(tag_mask)) {
        cb();
        return;
    }
    waiters.push_back(Waiter{tag_mask, std::move(cb)});
}

bool
Dmac::quiescent(std::uint32_t tag_mask) const
{
    for (std::uint32_t t = 0; t < numTags; ++t)
        if ((tag_mask >> t) & 1 && tagPending[t] != 0)
            return false;
    return true;
}

void
Dmac::addTagToken(std::uint32_t tag)
{
    ++tagPending.at(tag);
}

void
Dmac::completeTagToken(std::uint32_t tag)
{
    tagDone(tag);
}

void
Dmac::scheduleIssue()
{
    if (issueScheduled || cmdQueue.empty() ||
        inflight >= p.maxInflight)
        return;
    EventQueue &eq = net.events();
    const Tick when = nextIssue > eq.now() ? nextIssue : eq.now();
    issueScheduled = true;
    eq.schedule(when, [this] {
        issueScheduled = false;
        issueOne();
        scheduleIssue();
    });
}

void
Dmac::issueOne()
{
    if (cmdQueue.empty() || inflight >= p.maxInflight)
        return;
    DmaCommand &cmd = cmdQueue.front();
    const std::uint32_t line_idx = frontIssued;
    const Addr gm_line = cmd.gmAddr +
        static_cast<Addr>(line_idx) * lineBytes;
    const std::uint32_t spm_off =
        amap.spmOffset(cmd.spmAddr) + line_idx * lineBytes;

    const std::uint64_t id = reqs.acquire();
    *reqs.find(id) = Req{spm_off, cmd.tag, net.events().now()};

    Message m;
    m.addr = gm_line;
    m.requestor = core;
    m.aux = id;
    m.cls = TrafficClass::Dma;
    if (cmd.isGet) {
        m.type = MsgType::DmaRead;
        ++stGetLines;
    } else {
        m.type = MsgType::DmaWrite;
        m.hasData = true;
        spm.drainBlock(spm_off, m.data.bytes.data(), lineBytes);
        ++stPutLines;
    }
    net.send(core, Endpoint::Dir, net.homeSlice(gm_line), m,
             TrafficClass::Dma);

    ++inflight;
    nextIssue = net.events().now() + p.issueInterval;
    ++frontIssued;
    if (frontIssued * lineBytes >= cmd.bytes) {
        cmdQueue.pop_front();
        frontIssued = 0;
        if (cmdSlotCb)
            cmdSlotCb();
    }
}

void
Dmac::handle(const Message &msg)
{
    Req *slot = reqs.find(msg.aux);
    if (!slot)
        panic("Dmac: response for unknown request");
    const auto [spm_off, tag, issued] = *slot;
    reqs.release(msg.aux);
    --inflight;
    lineLatency.sample(net.events().now() - issued);

    switch (msg.type) {
      case MsgType::DmaReadResp:
        spm.fillBlock(spm_off, msg.data.bytes.data(), lineBytes);
        break;
      case MsgType::DmaWriteAck:
        break;
      default:
        panic("Dmac: unexpected message");
    }
    tagDone(tag);
    scheduleIssue();
}

void
Dmac::tagDone(std::uint32_t tag)
{
    if (tagPending.at(tag) == 0)
        panic("Dmac: tag underflow");
    --tagPending[tag];
    if (tagPending[tag] == 0)
        checkWaiters();
}

void
Dmac::checkWaiters()
{
    for (std::size_t i = 0; i < waiters.size();) {
        if (quiescent(waiters[i].mask)) {
            auto cb = std::move(waiters[i].cb);
            waiters.erase(waiters.begin() +
                          static_cast<std::ptrdiff_t>(i));
            cb();
        } else {
            ++i;
        }
    }
}

} // namespace spmcoh
