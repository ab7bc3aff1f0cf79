/**
 * @file
 * Main memory: sparse data-carrying line store plus the memory
 * controllers that front it on the mesh.
 *
 * Lines never touched read as zero. Controllers serve line reads and
 * writes with a fixed access latency plus a bandwidth-limited service
 * slot (one line per serviceCycles), modeling DDR contention at the
 * level the evaluation needs.
 */

#ifndef SPMCOH_MEM_MAINMEMORY_HH
#define SPMCOH_MEM_MAINMEMORY_HH

#include <cstdint>
#include <unordered_map>

#include "mem/Messages.hh"
#include "sim/EventQueue.hh"
#include "sim/Logging.hh"
#include "sim/Stats.hh"
#include "sim/Types.hh"

namespace spmcoh
{

/** Backing store shared by all memory controllers. */
class MainMemory
{
  public:
    /** Read a full line (zero-filled if untouched). */
    LineData
    readLine(Addr line_addr) const
    {
        auto it = lines.find(lineAlign(line_addr));
        return it == lines.end() ? LineData{} : it->second;
    }

    /** Write a full line. */
    void
    writeLine(Addr line_addr, const LineData &d)
    {
        lines[lineAlign(line_addr)] = d;
    }

    /** Functional 64-bit read (tests / reference model). */
    std::uint64_t
    read64(Addr addr) const
    {
        return readLine(addr).read64(lineOffset(addr) & ~7u);
    }

    /** Functional 64-bit write (initialization / reference model). */
    void
    write64(Addr addr, std::uint64_t v)
    {
        LineData d = readLine(addr);
        d.write64(lineOffset(addr) & ~7u, v);
        writeLine(addr, d);
    }

    std::size_t linesTouched() const { return lines.size(); }

  private:
    std::unordered_map<Addr, LineData> lines;
};

/** Memory controller timing parameters. */
struct MemCtrlParams
{
    Tick accessLatency = 80;  ///< fixed DRAM access time (cycles)
    /** Controller occupancy per line, in units of
     *  1/serviceDenom cycles (bandwidth). */
    Tick serviceCycles = 2;
    /** Sub-cycle denominator: > 1 only when
     *  SystemParams::scaleMcBandwidth re-derives the service rate
     *  for the core population. */
    Tick serviceDenom = 1;
};

/** Pooled far-memory tier parameters (multi-chip fabrics). */
struct PooledMemoryParams
{
    Tick accessLatency = 0;          ///< pool access time (cycles)
    std::uint32_t bytesPerCycle = 8; ///< pool serialization width
    std::uint32_t chips = 1;         ///< fabric size (backing map)
};

/**
 * The disaggregated far-memory pool behind the hub. Lines are
 * statically interleaved over the chips; a controller whose chip
 * does not back a line pays the pool's latency and bandwidth for it
 * instead of local DRAM timing. Functional data still lives in
 * MainMemory — the pool only prices the access.
 *
 * serviceAt() mutates one next-free slot shared by every controller
 * on every chip, so requests queue in event order.
 */
class PooledMemory
{
  public:
    explicit PooledMemory(const PooledMemoryParams &p_)
        : p(p_), stats("farmem"),
          stReads(stats.counter("reads")),
          stWrites(stats.counter("writes")),
          queueDelay(stats.histogram(
              "queueDelay", {1, 2, 4, 8, 16, 32, 64, 128, 256}))
    {}

    /** Chip whose local DRAM backs a line (static interleave). */
    std::uint32_t
    backingChip(Addr addr) const
    {
        return interleaveSlice(addr >> lineShift, p.chips);
    }

    /** Service one line access arriving at @p t; returns done tick. */
    Tick
    serviceAt(Tick t, bool is_write)
    {
        if (is_write)
            ++stWrites;
        else
            ++stReads;
        const std::uint32_t w = p.bytesPerCycle ? p.bytesPerCycle : 1;
        const Tick occ = static_cast<Tick>(divCeil(lineBytes, w));
        Tick start = t;
        if (nextFree > start)
            start = nextFree;
        nextFree = start + occ;
        queueDelay.sample(start - t);
        return start + occ + p.accessLatency;
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    PooledMemoryParams p;
    Tick nextFree = 0;
    StatGroup stats;
    Counter &stReads;
    Counter &stWrites;
    Histogram &queueDelay;
};

class MemNet;

/**
 * One memory controller. Receives MemRead/MemWrite from directory
 * slices and responds after queueing + access latency.
 */
class MemCtrl
{
  public:
    MemCtrl(EventQueue &eq_, MemNet &net_, MainMemory &mem_,
            std::uint32_t id_, CoreId tile_, const MemCtrlParams &p_,
            PooledMemory *pool_ = nullptr, std::uint32_t chip_ = 0)
        : eq(eq_), net(net_), mem(mem_), id(id_), tile(tile_), p(p_),
          pool(pool_), myChip(chip_),
          stats("memctrl" + std::to_string(id_)),
          stReads(stats.counter("reads")),
          stWrites(stats.counter("writes"))
    {}

    void handle(const Message &msg);

    const StatGroup &statGroup() const { return stats; }

  private:
    /** Serve a line the far pool backs instead of local DRAM. */
    void servePooled(const Message &msg, bool is_write);
    Tick
    serviceSlot()
    {
        // Accounted in 1/serviceDenom sub-cycle units so scaled
        // bandwidths below one cycle per line stay exact integers
        // (deterministic across runs). serviceDenom == 1 reproduces
        // the historical whole-cycle accounting bit-for-bit.
        const Tick den = p.serviceDenom ? p.serviceDenom : 1;
        Tick start = eq.now() * den;
        if (nextFree > start)
            start = nextFree;
        nextFree = start + p.serviceCycles;
        return (start + den - 1) / den + p.accessLatency;
    }

    EventQueue &eq;
    MemNet &net;
    MainMemory &mem;
    std::uint32_t id;
    CoreId tile;
    MemCtrlParams p;
    PooledMemory *pool;    ///< far tier, or nullptr (single chip)
    std::uint32_t myChip;  ///< chip this controller sits on
    Tick nextFree = 0;
    StatGroup stats;
    /** Hot-path counters, resolved once at construction. */
    Counter &stReads;
    Counter &stWrites;
};

} // namespace spmcoh

#endif // SPMCOH_MEM_MAINMEMORY_HH
