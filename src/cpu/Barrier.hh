/**
 * @file
 * Scoped fork-join barrier used by the workload models.
 *
 * Modeled as a centralized counter with a configurable release
 * latency rather than as literal shared-memory spinning, which would
 * drown the traffic figures in synchronization noise the paper's
 * OpenMP runtime does not exhibit.
 *
 * Barriers are *group-scoped*: each instance counts exactly the
 * phase-graph membership set that will arrive at it (a kernel's core
 * group plus its cross-group waiters), and its release latency is
 * derived from the mesh span of that membership (System::barrierFor)
 * instead of one all-cores constant. A flat program's degenerate
 * phase graph yields all-core barriers with the legacy latency, so
 * the historical behaviour is a special case.
 */

#ifndef SPMCOH_CPU_BARRIER_HH
#define SPMCOH_CPU_BARRIER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Logging.hh"

namespace spmcoh
{

/** Reusable counted barrier. */
class Barrier
{
  public:
    Barrier(EventQueue &eq_, std::uint32_t parties_,
            Tick release_latency = 50)
        : eq(eq_), parties(parties_), releaseLatency(release_latency)
    {
        if (parties_ == 0)
            fatal("Barrier: zero parties");
    }

    /**
     * Arrive; @p cb runs when the last party arrives. The release is
     * one event, releaseLatency after the last arrival, that runs
     * every waiter's callback in arrival order. Arrivals after a
     * release count toward the next generation.
     */
    void
    arrive(std::function<void()> cb)
    {
        waiting.push_back(std::move(cb));
        if (waiting.size() == parties) {
            std::vector<std::function<void()>> release;
            release.swap(waiting);
            ++generationCount;
            eq.scheduleIn(releaseLatency,
                          [release = std::move(release)] {
                for (const auto &f : release)
                    f();
            });
        }
    }

    std::uint64_t generation() const { return generationCount; }
    std::uint32_t pendingArrivals() const
    { return static_cast<std::uint32_t>(waiting.size()); }
    /** Size of the membership set this barrier counts. */
    std::uint32_t expectedParties() const { return parties; }
    /** Release latency this barrier was scoped with. */
    Tick latency() const { return releaseLatency; }

  private:
    EventQueue &eq;
    std::uint32_t parties;
    Tick releaseLatency;
    std::vector<std::function<void()>> waiting;
    std::uint64_t generationCount = 0;
};

} // namespace spmcoh

#endif // SPMCOH_CPU_BARRIER_HH
