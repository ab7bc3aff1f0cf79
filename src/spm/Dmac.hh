/**
 * @file
 * DMA controller (Table 1: command queue 32 entries in-order, bus
 * request queue 512 entries in-order).
 *
 * Supports the three operations of Sec. 2.1:
 *  - dma-get: GM -> SPM, snooping the cache hierarchy so the freshest
 *    cached copy is read (DmaRead transactions at the directory);
 *  - dma-put: SPM -> GM, updating main memory and invalidating the
 *    line everywhere in the cache hierarchy (DmaWrite transactions);
 *  - dma-synch: wait for the completion of all transfers tagged with
 *    any tag in a mask.
 *
 * The SPM coherence protocol can pin extra completion tokens on a tag
 * (filter invalidation round trips, Fig. 6a) so dma-synch also orders
 * mapping visibility.
 */

#ifndef SPMCOH_SPM_DMAC_HH
#define SPMCOH_SPM_DMAC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mem/MemNet.hh"
#include "spm/AddressMap.hh"
#include "spm/Spm.hh"
#include "sim/SlotTable.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** DMAC configuration. */
struct DmacParams
{
    std::uint32_t cmdQueueEntries = 32;
    std::uint32_t busQueueEntries = 512;
    std::uint32_t maxInflight = 64;  ///< line requests on the NoC
    Tick issueInterval = 1;          ///< cycles between line issues
};

/** One DMA transfer command. */
struct DmaCommand
{
    bool isGet = true;   ///< GM -> SPM if true, SPM -> GM otherwise
    Addr spmAddr = 0;    ///< virtual SPM address (local SPM)
    Addr gmAddr = 0;     ///< GM virtual address (line aligned)
    std::uint32_t bytes = 0;  ///< multiple of the line size
    std::uint32_t tag = 0;    ///< dma-synch tag (0..31)
};

/** Per-core DMA controller. */
class Dmac
{
  public:
    static constexpr std::uint32_t numTags = 32;

    Dmac(MemNet &net_, Spm &spm_, const AddressMap &amap_, CoreId core_,
         const DmacParams &p_, const std::string &name);

    /**
     * Enqueue a command. @return false if the command queue is full
     * (caller retries when notified through the slot callback).
     */
    bool enqueue(const DmaCommand &cmd);

    /** Invoke @p cb once all tags in @p tag_mask are quiescent. */
    void sync(std::uint32_t tag_mask, std::function<void()> cb);

    /** True if every tag in the mask is quiescent right now. */
    bool quiescent(std::uint32_t tag_mask) const;

    /** Pin an extra completion token on @p tag (coherence hooks). */
    void addTagToken(std::uint32_t tag);

    /** Release a pinned token. */
    void completeTagToken(std::uint32_t tag);

    /** Notified when a command-queue slot frees. */
    void
    setCmdSlotCallback(std::function<void()> cb)
    {
        cmdSlotCb = std::move(cb);
    }

    /** MemNet delivery entry point (DmaReadResp / DmaWriteAck). */
    void handle(const Message &msg);

    const StatGroup &statGroup() const { return stats; }

  private:
    struct Waiter
    {
        std::uint32_t mask;
        std::function<void()> cb;
    };

    void scheduleIssue();
    void issueOne();
    void tagDone(std::uint32_t tag);
    void checkWaiters();

    MemNet &net;
    Spm &spm;
    const AddressMap &amap;
    CoreId core;
    DmacParams p;

    std::deque<DmaCommand> cmdQueue;
    /** Lines of the front command already issued. */
    std::uint32_t frontIssued = 0;
    std::uint32_t inflight = 0;
    bool issueScheduled = false;
    Tick nextIssue = 0;

    std::vector<std::uint64_t> tagPending;
    std::vector<Waiter> waiters;
    /** In-flight line request bookkeeping; ids travel in msg.aux. */
    struct Req
    {
        std::uint32_t spmOff = 0;
        std::uint32_t tag = 0;
        Tick issued = 0;
    };
    SlotTable<Req> reqs;
    std::function<void()> cmdSlotCb;
    StatGroup stats;
    Counter stGetCommands{stats, "getCommands"};
    Counter stPutCommands{stats, "putCommands"};
    Counter stGetLines{stats, "getLines"};
    Counter stPutLines{stats, "putLines"};
    Counter stSyncs{stats, "syncs"};
    Counter stCmdQueueFull{stats, "cmdQueueFull"};
    /** Per-line response time. */
    Histogram lineLatency{stats, "lineLatency",
                          {16, 32, 64, 128, 256, 512, 1024}};
};

} // namespace spmcoh

#endif // SPMCOH_SPM_DMAC_HH
