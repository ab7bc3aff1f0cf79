/**
 * @file
 * Program memory layout.
 *
 * Assigns GM virtual base addresses to every array of a compiled
 * program. SPM-mapped arrays are aligned to the SPM size (32KB) and
 * padded so each thread-private section is an exact multiple of the
 * kernel's SPM buffer size -- the invariant that lets the protocol
 * hardware decompose addresses with the Base/Offset mask registers
 * (Sec. 3.1) and lets every mapped chunk be buffer-size aligned.
 */

#ifndef SPMCOH_RUNTIME_LAYOUT_HH
#define SPMCOH_RUNTIME_LAYOUT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "compiler/Compiler.hh"
#include "spm/AddressMap.hh"

namespace spmcoh
{

/** Resolved addresses and (possibly padded) sizes of all arrays. */
struct ProgramLayout
{
    /** Base of an id no array declares. */
    static constexpr Addr noArray = ~Addr(0);

    /** Indexed by the dense array id; noArray marks a gap. */
    std::vector<Addr> arrayBase;
    std::vector<std::uint64_t> arrayBytes;
    Addr heapEnd = AddressMap::heapBase;

    Addr
    baseOf(std::uint32_t array_id) const
    {
        checkArray(array_id);
        return arrayBase[array_id];
    }

    std::uint64_t
    bytesOf(std::uint32_t array_id) const
    {
        checkArray(array_id);
        return arrayBytes[array_id];
    }

  private:
    void
    checkArray(std::uint32_t array_id) const
    {
        if (array_id >= arrayBase.size() ||
            arrayBase[array_id] == noArray)
            panic("ProgramLayout: unknown array");
    }
};

/**
 * Lay out a compiled program for @p num_cores threads.
 *
 * SPM-target arrays are padded to a multiple of
 * num_cores * buffer_size (largest buffer over the kernels that map
 * the array) so sections tile exactly; other arrays are padded to
 * whole cache lines.
 */
inline ProgramLayout
layoutProgram(const ProgramPlan &plan, std::uint32_t num_cores)
{
    ProgramLayout l;
    // Largest buffer size per SPM-mapped array across kernels.
    std::unordered_map<std::uint32_t, std::uint64_t> max_buf;
    for (const KernelPlan &k : plan.kernels)
        for (const ClassifiedRef &r : k.refs)
            if (r.cls == RefClass::Spm) {
                std::uint64_t &m = max_buf[r.decl.arrayId];
                const std::uint64_t b = std::uint64_t(1) << k.bufLog2;
                if (b > m)
                    m = b;
            }

    Addr cursor = AddressMap::heapBase;
    std::uint32_t color = 0;
    for (const ArrayDecl &a : plan.decl.arrays) {
        std::uint64_t bytes = a.bytes;
        std::uint64_t align = lineBytes;
        if (auto it = max_buf.find(a.id); it != max_buf.end()) {
            const std::uint64_t quantum = it->second * num_cores;
            bytes = divCeil(bytes, quantum) * quantum;
            // Chunk-alignment only needs the buffer quantum. Stagger
            // consecutive arrays by one quantum ("coloring") so the
            // per-core stream pointers of a multi-array kernel do not
            // all alias to the same L1 sets -- real allocators do not
            // co-align every array either.
            align = it->second;
            cursor += static_cast<Addr>(color % 16) * align;
            ++color;
        } else {
            bytes = divCeil(bytes, lineBytes) * lineBytes;
        }
        cursor = divCeil(cursor, align) * align;
        if (a.id >= l.arrayBase.size()) {
            l.arrayBase.resize(a.id + 1, ProgramLayout::noArray);
            l.arrayBytes.resize(a.id + 1, 0);
        }
        l.arrayBase[a.id] = cursor;
        l.arrayBytes[a.id] = bytes;
        cursor += bytes;
    }
    l.heapEnd = cursor;
    return l;
}

} // namespace spmcoh

#endif // SPMCOH_RUNTIME_LAYOUT_HH
