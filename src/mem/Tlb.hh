/**
 * @file
 * Per-core TLB model.
 *
 * The hybrid memory system bypasses the MMU entirely for addresses in
 * the SPM virtual ranges (Fig. 2), so SPM accesses never look up the
 * TLB -- a major part of their energy advantage. GM accesses pay a
 * TLB lookup; misses add a fixed page-walk penalty. Translation is
 * identity (the simulator runs a flat address space); the TLB exists
 * for timing and energy accounting.
 */

#ifndef SPMCOH_MEM_TLB_HH
#define SPMCOH_MEM_TLB_HH

#include <cstdint>

#include "sim/PseudoLru.hh"
#include "sim/Stats.hh"
#include "sim/Types.hh"

#include <vector>

namespace spmcoh
{

/** TLB configuration. */
struct TlbParams
{
    std::uint32_t entries = 64;    ///< fully associative
    std::uint32_t pageBytes = 4096;
    Tick missPenalty = 30;         ///< page table walk cycles
};

/** Fully-associative TLB with pseudo-LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &p_, std::string name = "tlb")
        : p(p_), tags(p_.entries, badTag), lru(p_.entries),
          stats(std::move(name))
    {}

    /**
     * Translate a GM virtual address.
     * @return extra latency in cycles (0 on hit, missPenalty on miss)
     */
    Tick
    access(Addr vaddr)
    {
        const Addr vpn = vaddr / p.pageBytes;
        ++stAccesses;
        for (std::uint32_t i = 0; i < p.entries; ++i) {
            if (tags[i] == vpn) {
                lru.touch(i);
                return 0;
            }
        }
        ++stMisses;
        // Install the translation over the pLRU victim.
        std::uint32_t victim = p.entries;
        for (std::uint32_t i = 0; i < p.entries; ++i) {
            if (tags[i] == badTag) {
                victim = i;
                break;
            }
        }
        if (victim == p.entries)
            victim = lru.victim();
        tags[victim] = vpn;
        lru.touch(victim);
        return p.missPenalty;
    }

    const StatGroup &statGroup() const { return stats; }

  private:
    /// Invalid-entry sentinel; no page number of pages larger than
    /// one byte reaches ~0.
    static constexpr Addr badTag = ~Addr{0};

    TlbParams p;
    std::vector<Addr> tags;
    PseudoLru lru;
    StatGroup stats;
    Counter stAccesses{stats, "accesses"};
    Counter stMisses{stats, "misses"};
};

} // namespace spmcoh

#endif // SPMCOH_MEM_TLB_HH
