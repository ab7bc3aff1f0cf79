/**
 * @file
 * Freelist pool for in-flight Message objects.
 *
 * A Message is ~200 bytes (it embeds a full cache line), so letting
 * every delivery closure capture one by value pushes each network
 * hop through the allocator. The fabric instead parks the message in
 * a pooled slot and the closure captures the pointer; the slot goes
 * back on the freelist as soon as the handler returns.
 *
 * The pool grows in fixed chunks that are never freed until the
 * owning fabric dies, and recycles LIFO — all of which keeps its
 * behavior deterministic run-to-run. Nothing may key on the pointer
 * values themselves. A fresh System gets fresh pools, which is what
 * resets all slots between sweep experiments. A pool belongs to one
 * System, so it is only ever touched by the thread running that
 * System's event loop.
 */

#ifndef SPMCOH_MEM_MESSAGEPOOL_HH
#define SPMCOH_MEM_MESSAGEPOOL_HH

#include <memory>
#include <vector>

#include "mem/Messages.hh"

namespace spmcoh
{

/** Chunked freelist allocator for Message slots. */
class MessagePool
{
  public:
    MessagePool() = default;
    MessagePool(const MessagePool &) = delete;
    MessagePool &operator=(const MessagePool &) = delete;

    /** Grab a slot holding a copy of @p src. */
    Message *
    acquire(const Message &src)
    {
        if (freeList.empty())
            grow();
        Message *m = freeList.back();
        freeList.pop_back();
        *m = src;
        return m;
    }

    /** Return a slot; @p m must come from this pool. */
    void
    release(Message *m)
    {
        freeList.push_back(m);
    }

    /** Slots ever allocated (capacity watermark, for tests). */
    std::size_t
    capacity() const
    {
        return chunks.size() * chunkSize;
    }

  private:
    void
    grow()
    {
        chunks.push_back(std::make_unique<Message[]>(chunkSize));
        Message *base = chunks.back().get();
        for (std::size_t i = chunkSize; i-- > 0;)
            freeList.push_back(base + i);
    }

    static constexpr std::size_t chunkSize = 64;
    std::vector<std::unique_ptr<Message[]>> chunks;
    std::vector<Message *> freeList;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MESSAGEPOOL_HH
