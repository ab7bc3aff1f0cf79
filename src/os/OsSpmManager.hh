/**
 * @file
 * OS support for backwards compatibility (Sec. 4.1).
 *
 * The OS process structure is extended with the eight SPM range
 * registers plus the per-SPM access-permission bitmask. Processes
 * start with the SPM mapping disabled (compatibility mode); when an
 * SPM-enabled application is scheduled, the registers are restored
 * from the process structure and SPM contents are switched lazily, in
 * the style of the Linux FPU register handling. Accessing an SPM
 * whose permission bit is clear raises an exception. SPM power
 * gating is not modelled.
 */

#ifndef SPMCOH_OS_OSSPMMANAGER_HH
#define SPMCOH_OS_OSSPMMANAGER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "spm/AddressMap.hh"
#include "spm/Spm.hh"
#include "sim/Logging.hh"
#include "sim/Stats.hh"

namespace spmcoh
{

/** SPM-related state kept in the OS process structure. */
struct ProcessContext
{
    std::uint32_t pid = 0;
    bool spmEnabled = false;
    /** The 4 virtual + 4 physical range registers (Sec. 2.1). */
    Addr localVirtBase = 0, localVirtEnd = 0;
    Addr globalVirtBase = 0, globalVirtEnd = 0;
    Addr localPhysBase = 0, localPhysEnd = 0;
    Addr globalPhysBase = 0, globalPhysEnd = 0;
    /** Bit N set => this process may access SPM N. */
    std::uint64_t spmAccessMask = 0;
    /** Saved SPM image for lazy switching (one per owned SPM). */
    std::unordered_map<CoreId, std::vector<std::uint8_t>> savedSpm;
};

/** Exception kinds the SPM OS layer can raise. */
enum class SpmFault : std::uint8_t
{
    None,
    PermissionDenied,  ///< access bit clear for the target SPM
    MappingDisabled,   ///< compatibility-mode process touched SPMs
};

/** OS-level manager of SPM virtualization. */
class OsSpmManager
{
  public:
    OsSpmManager(std::uint32_t num_cores, std::uint32_t spm_bytes)
        : numCores(num_cores), spmBytes(spm_bytes),
          amap(num_cores, spm_bytes),
          runningPid(num_cores, invalidPid),
          spmOwnerPid(num_cores, invalidPid),
          stats("os")
    {}

    static constexpr std::uint32_t invalidPid = 0xffffffff;

    /** Create a process; SPM mapping disabled by default. */
    ProcessContext &
    createProcess(bool spm_enabled, std::uint64_t access_mask = 0)
    {
        const std::uint32_t pid = nextPid++;
        ProcessContext ctx;
        ctx.pid = pid;
        ctx.spmEnabled = spm_enabled;
        if (spm_enabled) {
            ctx.globalVirtBase = AddressMap::defaultSpmBase;
            ctx.globalVirtEnd = AddressMap::defaultSpmBase +
                static_cast<Addr>(numCores) * spmBytes;
            ctx.globalPhysBase = ctx.globalVirtBase;
            ctx.globalPhysEnd = ctx.globalVirtEnd;
            ctx.spmAccessMask = access_mask;
        }
        auto [it, ok] = processes.emplace(pid, std::move(ctx));
        (void)ok;
        return it->second;
    }

    /**
     * Schedule @p pid on @p core: restore the range registers and
     * lazily switch the SPM contents (save the previous owner's image
     * only when a new owner actually claims the SPM).
     */
    void
    schedule(CoreId core, std::uint32_t pid, Spm &spm)
    {
        ProcessContext &ctx = processes.at(pid);
        ++stContextSwitches;
        runningPid.at(core) = pid;
        if (!ctx.spmEnabled) {
            // Compatibility mode: registers cleared, SPM untouched.
            return;
        }
        ctx.localVirtBase = amap.localSpmBase(core);
        ctx.localVirtEnd = ctx.localVirtBase + spmBytes;
        ctx.localPhysBase = ctx.localVirtBase;
        ctx.localPhysEnd = ctx.localVirtEnd;

        if (spmOwnerPid[core] != pid) {
            // Lazy switch: save the old owner's image, restore ours.
            if (spmOwnerPid[core] != invalidPid) {
                ProcessContext &old = processes.at(spmOwnerPid[core]);
                auto &img = old.savedSpm[core];
                img.resize(spmBytes);
                spm.drainBlock(0, img.data(), spmBytes);
                ++stLazySaves;
            }
            if (auto it = ctx.savedSpm.find(core);
                it != ctx.savedSpm.end()) {
                spm.fillBlock(0, it->second.data(), spmBytes);
                ++stLazyRestores;
            }
            spmOwnerPid[core] = pid;
        }
    }

    /**
     * Hardware check on an SPM access by the process on @p core
     * against SPM @p target (Sec. 4.1 permission register).
     */
    SpmFault
    checkAccess(CoreId core, CoreId target) const
    {
        const std::uint32_t pid = runningPid.at(core);
        if (pid == invalidPid)
            return SpmFault::MappingDisabled;
        const ProcessContext &ctx = processes.at(pid);
        if (!ctx.spmEnabled)
            return SpmFault::MappingDisabled;
        if (!((ctx.spmAccessMask >> target) & 1))
            return SpmFault::PermissionDenied;
        return SpmFault::None;
    }

    const ProcessContext &process(std::uint32_t pid) const
    { return processes.at(pid); }

    const StatGroup &statGroup() const { return stats; }

  private:
    std::uint32_t numCores;
    std::uint32_t spmBytes;
    AddressMap amap;
    std::unordered_map<std::uint32_t, ProcessContext> processes;
    std::uint32_t nextPid = 1;
    std::vector<std::uint32_t> runningPid;
    std::vector<std::uint32_t> spmOwnerPid;
    StatGroup stats;
    Counter stContextSwitches{stats, "contextSwitches"};
    Counter stLazySaves{stats, "lazySaves"};
    Counter stLazyRestores{stats, "lazyRestores"};
};

} // namespace spmcoh

#endif // SPMCOH_OS_OSSPMMANAGER_HH
