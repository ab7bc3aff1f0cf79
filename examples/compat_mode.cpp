/**
 * @file
 * OS support demo (Sec. 4.1): backwards compatibility and SPM
 * virtualization. A legacy process runs with the SPM mapping
 * disabled; two SPM-enabled processes time-share one core with lazy
 * SPM content switching; the permission bitmask blocks accesses to
 * SPMs a process does not own. SPM power gating is not modelled.
 *
 * Run: ./compat_mode
 */

#include <cstdio>

#include "driver/Driver.hh"
#include "os/OsSpmManager.hh"

using namespace spmcoh;

int
main()
{
    constexpr std::uint32_t cores = 4;
    constexpr std::uint32_t spm_bytes = 32 * 1024;
    OsSpmManager os(cores, spm_bytes);
    Spm spm0(spm_bytes, 2, "spm0");

    // 1. Backwards compatibility: a legacy process sees no SPMs.
    ProcessContext &legacy = os.createProcess(false);
    os.schedule(0, legacy.pid, spm0);
    std::printf("legacy process: SPM access -> %s\n",
                os.checkAccess(0, 0) == SpmFault::MappingDisabled
                    ? "fault (mapping disabled)" : "allowed?!");

    // 2. SPM-enabled processes with distinct permission masks.
    ProcessContext &pa = os.createProcess(true, 0b0011);
    ProcessContext &pb = os.createProcess(true, 0b0001);
    os.schedule(0, pa.pid, spm0);
    std::printf("process A: SPM0 %s, SPM1 %s, SPM2 %s\n",
                os.checkAccess(0, 0) == SpmFault::None ? "ok"
                                                       : "fault",
                os.checkAccess(0, 1) == SpmFault::None ? "ok"
                                                       : "fault",
                os.checkAccess(0, 2) == SpmFault::None ? "ok"
                                                       : "fault");

    // 3. Lazy SPM content switching across processes.
    spm0.write(0, 8, 0xA11CE);
    os.schedule(0, pb.pid, spm0);
    spm0.write(0, 8, 0xB0B);
    os.schedule(0, pa.pid, spm0);
    std::printf("process A's SPM word after B ran in between: "
                "0x%llx (expect 0xA11CE)\n",
                static_cast<unsigned long long>(spm0.read(0, 8)));
    os.schedule(0, pb.pid, spm0);
    std::printf("process B's SPM word restored: 0x%llx "
                "(expect 0xB0B)\n",
                static_cast<unsigned long long>(spm0.read(0, 8)));

    std::printf("context switches: %llu, lazy saves: %llu, lazy "
                "restores: %llu\n",
                static_cast<unsigned long long>(
                    os.statGroup().value("contextSwitches")),
                static_cast<unsigned long long>(
                    os.statGroup().value("lazySaves")),
                static_cast<unsigned long long>(
                    os.statGroup().value("lazyRestores")));

    // 4. Whole-system view of backwards compatibility: the same
    //    workload runs unmodified on the cache-based configuration
    //    (what a legacy process sees) and on the hybrid system,
    //    through the experiment builder.
    ExperimentBuilder builder;
    builder.workload("CG").cores(cores).scale(0.25);
    const ExperimentResult legacy_run =
        builder.mode(SystemMode::CacheOnly).run();
    const ExperimentResult hybrid_run =
        builder.mode(SystemMode::HybridProto).run();
    std::printf("CG on %u cores: legacy (cache-only) %llu cycles, "
                "SPM-enabled %llu cycles (%.2fx)\n",
                cores,
                static_cast<unsigned long long>(
                    legacy_run.results.cycles),
                static_cast<unsigned long long>(
                    hybrid_run.results.cycles),
                double(legacy_run.results.cycles) /
                    double(hybrid_run.results.cycles));
    return 0;
}
