/**
 * @file
 * Pool of 64-byte line payloads shared by every cache of one system.
 *
 * The L1s and the L2 slices keep only tags and small per-line records
 * in their arrays; each valid line names a slot of this pool for its
 * data. Slots live in 64-line (4 KiB) chunks that never move, so a
 * payload reference stays valid while its slot is held. A freed slot
 * is reused first (LIFO); the pool grows by one chunk only when no
 * freed slot is left. Slot numbers never reach the simulated machine,
 * so the order of reuse cannot change a result.
 *
 * Like MessagePool, a pool belongs to one System (its MemNet) and is
 * only touched by the thread running that System's event loop.
 */

#ifndef SPMCOH_MEM_LINEPOOL_HH
#define SPMCOH_MEM_LINEPOOL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/Messages.hh"

namespace spmcoh
{

/** Chunked slot allocator for line payloads. */
class LinePool
{
  public:
    LinePool() = default;
    LinePool(const LinePool &) = delete;
    LinePool &operator=(const LinePool &) = delete;

    /** Lines per chunk. */
    static constexpr std::uint32_t chunkLines = 64;

    /** A slot for a new line: a freed one, else the next new one. */
    std::uint32_t
    alloc()
    {
        if (!freeSlots.empty()) {
            const std::uint32_t s = freeSlots.back();
            freeSlots.pop_back();
            return s;
        }
        const std::uint32_t s = handedOut++;
        if (s / chunkLines == chunks.size())
            chunks.push_back(std::make_unique<Chunk>());
        return s;
    }

    /** Return @p slot; its payload is dead from here on. */
    void free(std::uint32_t slot) { freeSlots.push_back(slot); }

    LineData &
    operator[](std::uint32_t slot)
    {
        return chunks[slot / chunkLines]->lines[slot % chunkLines];
    }

    /** Slots handed out so far (the peak number held at once). */
    std::uint32_t slots() const { return handedOut; }
    /** Slots held right now. */
    std::uint32_t
    live() const
    {
        return handedOut - static_cast<std::uint32_t>(freeSlots.size());
    }

  private:
    /** Host-cache-line aligned, so one payload is one host line. */
    struct alignas(64) Chunk
    {
        std::array<LineData, chunkLines> lines;
    };

    std::vector<std::unique_ptr<Chunk>> chunks;
    std::uint32_t handedOut = 0;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_LINEPOOL_HH
