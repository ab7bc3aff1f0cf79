/**
 * @file
 * Phase-graph schedule resolution.
 */

#include "runtime/PhaseSchedule.hh"

#include <algorithm>
#include <string>

#include "sim/Logging.hh"

namespace spmcoh
{

PhaseSchedule::PhaseSchedule(const ProgramDecl &decl,
                             std::uint32_t num_cores)
    : cores(num_cores), steps_(decl.timesteps)
{
    if (num_cores == 0)
        fatal("PhaseSchedule: zero cores");

    // Lower flat programs to the degenerate chain graph on a local
    // copy, so hand-built ProgramDecls behave like built ones.
    ProgramDecl d = decl;
    ensurePhaseDeps(d);
    kernels = d.kernels;
    const std::uint32_t n =
        static_cast<std::uint32_t>(kernels.size());

    // Kernel id -> index map (ProgramBuilder makes them equal, but
    // hand-built decls may not).
    std::vector<std::uint32_t> idx_of;
    for (std::uint32_t i = 0; i < n; ++i) {
        const KernelDecl &k = kernels[i];
        if (idx_of.size() <= k.id)
            idx_of.resize(k.id + 1, n);
        if (idx_of[k.id] != n)
            fatal("PhaseSchedule: duplicate kernel id " +
                  std::to_string(k.id));
        idx_of[k.id] = i;
        if (!k.group.all() &&
            (k.group.first >= num_cores ||
             k.group.first + k.group.count > num_cores))
            fatal("PhaseSchedule: kernel '" + k.name +
                  "' group exceeds the " +
                  std::to_string(num_cores) + "-core machine");
    }

    // Resolve edges to indices; detect dangling deps.
    std::vector<std::vector<std::uint32_t>> preds(n), succs(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t dep : kernels[i].deps) {
            if (dep >= idx_of.size() || idx_of[dep] == n)
                fatal("PhaseSchedule: kernel '" + kernels[i].name +
                      "' depends on undeclared kernel id " +
                      std::to_string(dep));
            const std::uint32_t p = idx_of[dep];
            if (p == i)
                fatal("PhaseSchedule: kernel '" + kernels[i].name +
                      "' depends on itself");
            preds[i].push_back(p);
            succs[p].push_back(i);
            ++edges;
        }
    }

    // Kahn with smallest-index-first selection: deterministic, and
    // equal to declaration order for chained flat programs.
    std::vector<std::uint32_t> indeg(n, 0);
    for (std::uint32_t i = 0; i < n; ++i)
        indeg[i] = static_cast<std::uint32_t>(preds[i].size());
    std::vector<bool> placed(n, false);
    topo.reserve(n);
    for (std::uint32_t placed_count = 0; placed_count < n;
         ++placed_count) {
        std::uint32_t pick = n;
        for (std::uint32_t i = 0; i < n; ++i)
            if (!placed[i] && indeg[i] == 0) {
                pick = i;
                break;
            }
        if (pick == n) {
            std::string cyc;
            for (std::uint32_t i = 0; i < n; ++i)
                if (!placed[i])
                    cyc += (cyc.empty() ? "" : ", ") +
                           kernels[i].name;
            fatal("PhaseSchedule: dependency cycle involving "
                  "kernels: " + cyc);
        }
        placed[pick] = true;
        topo.push_back(pick);
        for (std::uint32_t s : succs[pick])
            --indeg[s];
    }

    // Roots and sinks (cross-timestep serialization points).
    for (std::uint32_t i = 0; i < n; ++i)
        if (succs[i].empty())
            sinks_.push_back(i);

    // Distinct resolved groups.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (const KernelDecl &k : kernels) {
        const std::uint32_t first = k.group.all() ? 0 : k.group.first;
        const std::uint32_t size = k.group.size(num_cores);
        if (std::find(seen.begin(), seen.end(),
                      std::make_pair(first, size)) == seen.end())
            seen.emplace_back(first, size);
    }
    groups = static_cast<std::uint32_t>(seen.size());

    // Barrier membership: group members arrive after running; cores
    // of successor groups outside the group arrive as waiters; roots
    // of the next timestep arrive at sink barriers. Count each core
    // once (union semantics, mirroring the per-core walk's dedup).
    barriers.resize(n);
    std::vector<char> member(num_cores);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::fill(member.begin(), member.end(), 0);
        for (std::uint32_t c = 0; c < num_cores; ++c)
            if (kernels[i].group.contains(c, num_cores))
                member[c] = 1;
        for (std::uint32_t s : succs[i])
            for (std::uint32_t c = 0; c < num_cores; ++c)
                if (kernels[s].group.contains(c, num_cores))
                    member[c] = 1;
        std::uint32_t base = 0;
        for (std::uint32_t c = 0; c < num_cores; ++c)
            base += member[c];
        barriers[i].partiesLast = base;

        if (succs[i].empty() && steps_ > 1) {
            // Sink: next-timestep roots wait on it.
            for (std::uint32_t r = 0; r < n; ++r)
                if (preds[r].empty())
                    for (std::uint32_t c = 0; c < num_cores; ++c)
                        if (kernels[r].group.contains(c, num_cores))
                            member[c] = 1;
        }
        std::uint32_t parties = 0;
        std::uint32_t lo = num_cores, hi = 0;
        for (std::uint32_t c = 0; c < num_cores; ++c)
            if (member[c]) {
                ++parties;
                lo = std::min(lo, c);
                hi = std::max(hi, c);
            }
        barriers[i].parties = parties;
        barriers[i].loCore = lo == num_cores ? 0 : lo;
        barriers[i].hiCore = hi;
        if (parties == 0)
            fatal("PhaseSchedule: kernel '" + kernels[i].name +
                  "' has an empty core group");
    }
}

std::vector<PhaseStep>
PhaseSchedule::stepsFor(std::uint32_t core) const
{
    std::vector<PhaseStep> out;
    if (core >= cores)
        return out;

    const std::uint32_t n = numKernels();
    std::vector<bool> arrived(n, false);      // this-timestep barriers
    std::vector<bool> prev_arrived(n, false); // prev-timestep sinks
    // Membership is timestep-invariant, so one walk serves every
    // timestep; ProgramSource applies the barrier-id offset.
    for (std::uint32_t idx : topo) {
        const KernelDecl &k = kernels[idx];
        if (!k.group.contains(core, cores))
            continue;
        PhaseStep s;
        s.kernelIdx = idx;
        s.root = k.deps.empty();
        if (s.root) {
            for (std::uint32_t snk : sinks_) {
                if (kernels[snk].group.contains(core, cores))
                    continue;  // ran it last timestep
                if (prev_arrived[snk])
                    continue;
                prev_arrived[snk] = true;
                s.prevSinkWaits.push_back(snk);
            }
        }
        for (std::uint32_t dep : k.deps) {
            // Builder guarantees resolvability; ids == indices after
            // construction, so map through the stored kernels.
            std::uint32_t p = n;
            for (std::uint32_t i = 0; i < n; ++i)
                if (kernels[i].id == dep) {
                    p = i;
                    break;
                }
            if (p == n || arrived[p])
                continue;
            arrived[p] = true;
            s.waits.push_back(p);
        }
        arrived[idx] = true;  // own completion barrier
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace spmcoh
