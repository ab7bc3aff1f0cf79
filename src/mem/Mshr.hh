/**
 * @file
 * Miss Status Holding Registers for the L1 caches.
 *
 * One MSHR tracks one outstanding line transaction; same-line demand
 * accesses merge as targets and complete in order when the fill
 * arrives. Guarded accesses that must wait for a FilterDir decision
 * are buffered here too (paper Sec. 3.2: "the L1 cache access is
 * buffered in the MSHR").
 */

#ifndef SPMCOH_MEM_MSHR_HH
#define SPMCOH_MEM_MSHR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/LineMap.hh"
#include "sim/Logging.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** A buffered access waiting on an in-flight line. */
struct MshrTarget
{
    Addr addr = 0;          ///< full (un-aligned) address
    std::uint8_t size = 8;
    bool isWrite = false;
    std::uint64_t wdata = 0;
    /** Completion callback; argument is the loaded value (0 for st). */
    std::function<void(std::uint64_t)> onDone;
};

/** FIFO of targets linked through an MshrFile's target pool. */
struct MshrChain
{
    static constexpr std::uint32_t none = ~std::uint32_t(0);
    std::uint32_t head = none;  ///< oldest target's pool node
    std::uint32_t tail = none;  ///< newest target's pool node

    bool empty() const { return head == none; }
};

/** One outstanding line transaction. */
struct MshrEntry
{
    Addr lineAddr = 0;
    bool wantExclusive = false; ///< GetX issued (or will be)
    bool isPrefetch = true;     ///< only prefetch targets so far
    MshrChain targets;          ///< merged accesses, oldest first
};

/**
 * Fixed-capacity MSHR file: a slot array recycled LIFO, a line index,
 * and one pool of target nodes shared by all slots, recycled through
 * a free list. Each grows only to its peak occupancy, so the file
 * never holds more than `capacity` slots or the index size that many
 * lines need, and steady state allocates nothing per miss. An entry
 * reference is valid until the next alloc() or release(); a target
 * reference until the next push().
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t capacity_) : capacity(capacity_) {}

    bool full() const { return index.size() >= capacity; }
    std::size_t used() const { return index.size(); }

    MshrEntry *
    find(Addr line_addr)
    {
        const std::uint32_t *s = index.find(lineAlign(line_addr));
        return s ? &slots[*s] : nullptr;
    }

    /** Allocate a new entry with no targets.
     *  @pre !full() && !find(line_addr) */
    MshrEntry &
    alloc(Addr line_addr)
    {
        if (full())
            panic("MshrFile: allocation past capacity");
        std::uint32_t s;
        if (freeSlots.empty()) {
            s = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back();
        } else {
            s = freeSlots.back();
            freeSlots.pop_back();
        }
        MshrEntry &e = slots[s];
        e = MshrEntry{};
        e.lineAddr = lineAlign(line_addr);
        index.insert(e.lineAddr, s);
        return e;
    }

    /** Free an entry when its transaction completes; the caller
     *  takes over its targets (drain them with pop()). */
    MshrChain
    release(Addr line_addr)
    {
        const Addr la = lineAlign(line_addr);
        const std::uint32_t s =
            index.at(la, "MshrFile: release of an idle line");
        index.erase(la);
        freeSlots.push_back(s);
        return slots[s].targets;
    }

    /** Append @p t to @p chain. */
    void
    push(MshrChain &chain, MshrTarget t)
    {
        std::uint32_t n = freeNodes;
        if (n == MshrChain::none) {
            n = static_cast<std::uint32_t>(pool.size());
            pool.emplace_back();
        } else {
            freeNodes = pool[n].next;
        }
        pool[n].target = std::move(t);
        pool[n].next = MshrChain::none;
        if (chain.empty())
            chain.head = n;
        else
            pool[chain.tail].next = n;
        chain.tail = n;
    }

    /** Oldest target of @p chain. @pre !chain.empty() */
    MshrTarget &front(const MshrChain &chain)
    { return pool[chain.head].target; }

    /** Remove and return the oldest target. @pre !chain.empty() */
    MshrTarget
    pop(MshrChain &chain)
    {
        const std::uint32_t n = chain.head;
        Node &node = pool[n];
        MshrTarget t = std::move(node.target);
        node.target.onDone = nullptr;
        chain.head = node.next;
        if (chain.empty())
            chain.tail = MshrChain::none;
        node.next = freeNodes;
        freeNodes = n;
        return t;
    }

  private:
    struct Node
    {
        MshrTarget target;
        std::uint32_t next = MshrChain::none;
    };

    std::uint32_t capacity;
    std::vector<MshrEntry> slots;
    std::vector<std::uint32_t> freeSlots;
    LineMap<std::uint32_t> index;
    std::vector<Node> pool;
    std::uint32_t freeNodes = MshrChain::none;  ///< free-list head
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MSHR_HH
