/**
 * @file
 * Property tests of the SPM coherence protocol under *real aliasing*:
 * guarded accesses that genuinely target SPM-mapped chunks, remapping
 * while guarded traffic is in flight, and the filter <= filterDir
 * tracking invariants of Sec. 3.3.
 *
 * The benchmarks of the paper never alias (Sec. 5.2), so these tests
 * are what actually exercises the Fig. 5b/5d diversion machinery and
 * the Fig. 6a invalidation under load.
 */

#include <gtest/gtest.h>

#include "sim/Rng.hh"
#include "system/System.hh"

namespace spmcoh
{
namespace
{

constexpr std::uint32_t bufLog2 = 12;
constexpr std::uint64_t bufBytes = 1ull << bufLog2;

struct GuardedFixture
{
    System sys;
    Rng rng;

    explicit GuardedFixture(std::uint64_t seed)
        : sys(SystemParams::forMode(SystemMode::HybridProto, 4)),
          rng(seed)
    {
        for (CoreId c = 0; c < 4; ++c)
            sys.cohAt(c).setBufferConfig(bufLog2);
    }

    /** Guarded access fully resolved through the protocol. */
    std::pair<bool, std::uint64_t>
    guardedAccess(CoreId c, Addr addr, bool is_write,
                  std::uint64_t wdata)
    {
        GuardProbe g = sys.cohAt(c).probeGuarded(addr, is_write);
        switch (g.kind) {
          case GuardProbe::Kind::LocalSpm: {
            Spm &spm = sys.spmAt(c);
            const std::uint32_t off =
                sys.addressMap().spmOffset(g.spmAddr);
            if (is_write) {
                spm.write(off, 8, wdata);
                return {true, 0};
            }
            return {true, spm.read(off, 8)};
          }
          case GuardProbe::Kind::UseCache: {
            // Plain cache access.
            Tick lat = 0;
            if (is_write) {
                if (!sys.l1dAt(c).tryStore(addr, 8, wdata,
                                           sys.events().now(), 1,
                                           lat)) {
                    bool done = false;
                    EXPECT_TRUE(sys.l1dAt(c).startStore(
                        addr, 8, wdata, 1,
                        [&](std::uint64_t) { done = true; }));
                    sys.events().run();
                    EXPECT_TRUE(done);
                }
                return {false, 0};
            }
            if (auto v = sys.l1dAt(c).tryLoad(addr, 8,
                                              sys.events().now(), 1,
                                              lat))
                return {false, *v};
            std::uint64_t out = 0;
            bool done = false;
            EXPECT_TRUE(sys.l1dAt(c).startLoad(
                addr, 8, 1, [&](std::uint64_t v) {
                    out = v;
                    done = true;
                }));
            sys.events().run();
            EXPECT_TRUE(done);
            return {false, out};
          }
          case GuardProbe::Kind::Pending: {
            bool by_spm = false;
            std::uint64_t out = 0;
            bool done = false;
            sys.cohAt(c).resolveGuarded(
                addr, 8, is_write, wdata,
                [&](bool s, std::uint64_t v) {
                    by_spm = s;
                    out = v;
                    done = true;
                });
            sys.events().run();
            EXPECT_TRUE(done);
            if (!by_spm) {
                // Not mapped: perform the buffered cache access.
                auto r = guardedAccess(c, addr, is_write, wdata);
                return {false, r.second};
            }
            return {true, out};
          }
        }
        return {false, 0};
    }
};

/**
 * Random mapping/unmapping/access interleavings: a guarded access
 * must always reach the valid copy -- the SPM of whichever core maps
 * the chunk, or the cache hierarchy when nobody does. A reference
 * model tracks where each chunk lives and what its words hold.
 */
class GuardedAliasing : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GuardedAliasing, AlwaysAccessesValidCopy)
{
    GuardedFixture f(GetParam());
    // Four chunks, each either unmapped or owned by one core.
    const Addr chunk_base = 0x400000;
    struct ChunkState
    {
        CoreId owner = invalidCore;
        std::uint32_t buffer = 0;
    };
    ChunkState chunks[4];
    std::unordered_map<Addr, std::uint64_t> ref;
    auto evict_slot = [&](CoreId owner, std::uint32_t buf) {
        // Mapping over an occupied (owner, buffer) slot implicitly
        // unmaps whatever chunk lived there.
        for (ChunkState &cs : chunks)
            if (cs.owner == owner && cs.buffer == buf)
                cs.owner = invalidCore;
    };

    for (int step = 0; step < 300; ++step) {
        const std::uint32_t ci =
            static_cast<std::uint32_t>(f.rng.below(4));
        const Addr base = chunk_base + ci * bufBytes;
        const std::uint32_t action =
            static_cast<std::uint32_t>(f.rng.below(10));
        if (action < 2) {
            // (Re)map the chunk on a random core. A real runtime
            // would dma-get the chunk; mirror that by copying the
            // reference contents into the owner's SPM buffer.
            const CoreId owner =
                static_cast<CoreId>(f.rng.below(4));
            const std::uint32_t buf =
                static_cast<std::uint32_t>(f.rng.below(8));
            if (chunks[ci].owner != invalidCore)
                f.sys.cohAt(chunks[ci].owner)
                    .unmapBuffer(chunks[ci].buffer);
            evict_slot(owner, buf);
            f.sys.cohAt(owner).mapBuffer(buf, base, 0);
            f.sys.events().run();  // Fig. 6a invalidation drains
            for (std::uint64_t off = 0; off < bufBytes; off += 8) {
                const Addr a = base + off;
                f.sys.spmAt(owner).write(
                    static_cast<std::uint32_t>(buf * bufBytes + off),
                    8, ref.count(a) ? ref[a] : 0);
            }
            chunks[ci] = ChunkState{owner, buf};
        } else if (action < 3 && chunks[ci].owner != invalidCore) {
            // Unmap, then write the buffer contents back to the GM
            // copy (the runtime's dma-put). The unmap comes first so
            // the write-back targets the cache-side copy.
            const CoreId owner = chunks[ci].owner;
            const std::uint32_t buf = chunks[ci].buffer;
            f.sys.cohAt(owner).unmapBuffer(buf);
            chunks[ci].owner = invalidCore;
            for (std::uint64_t off = 0; off < bufBytes; off += 8) {
                const Addr a = base + off;
                const std::uint64_t v = f.sys.spmAt(owner).read(
                    static_cast<std::uint32_t>(buf * bufBytes + off),
                    8);
                if (v != 0 || ref.count(a)) {
                    auto r = f.guardedAccess(owner, a, true, v);
                    EXPECT_FALSE(r.first);  // no longer mapped
                }
            }
            f.sys.events().run();
        } else {
            // Guarded access from a random core.
            const CoreId c = static_cast<CoreId>(f.rng.below(4));
            const Addr a = base + f.rng.below(bufBytes / 8) * 8;
            const bool is_write = f.rng.chance(0.4);
            if (is_write) {
                const std::uint64_t v = f.rng.next();
                auto [by_spm, _] = f.guardedAccess(c, a, true, v);
                EXPECT_EQ(by_spm, chunks[ci].owner != invalidCore)
                    << "step " << step;
                ref[a] = v;
            } else {
                auto [by_spm, v] = f.guardedAccess(c, a, false, 0);
                EXPECT_EQ(by_spm, chunks[ci].owner != invalidCore)
                    << "step " << step;
                const std::uint64_t expect =
                    ref.count(a) ? ref[a] : 0;
                EXPECT_EQ(v, expect) << "step " << step;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardedAliasing,
                         ::testing::Values(5, 23, 101, 4242));

/**
 * Tracking invariant (Sec. 3.3): any base present in a core's filter
 * is tracked by its FilterDir home slice with that core as sharer,
 * and no filter ever caches a base that is currently mapped.
 */
class FilterInvariant : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FilterInvariant, FilterSubsetOfFilterDir)
{
    GuardedFixture f(GetParam() ^ 0xf11e);
    const Addr area = 0x600000;
    std::vector<Addr> mapped;

    for (int step = 0; step < 250; ++step) {
        const Addr base = area + f.rng.below(32) * bufBytes;
        const std::uint32_t action =
            static_cast<std::uint32_t>(f.rng.below(8));
        if (action == 0) {
            const CoreId owner =
                static_cast<CoreId>(f.rng.below(4));
            f.sys.cohAt(owner).mapBuffer(
                static_cast<std::uint32_t>(f.rng.below(8)), base, 0);
            mapped.push_back(base);
            f.sys.events().run();
        } else {
            const CoreId c = static_cast<CoreId>(f.rng.below(4));
            auto r = f.guardedAccess(c, base + f.rng.below(512) * 8,
                                     false, 0);
            (void)r;
        }
        f.sys.events().run();

        // Check the invariants after quiescing.
        for (CoreId c = 0; c < 4; ++c) {
            for (Addr b = area; b < area + 32 * bufBytes;
                 b += bufBytes) {
                if (!f.sys.cohAt(c).filterRef().contains(b))
                    continue;
                // 1. Never cached while mapped.
                bool is_mapped = false;
                for (CoreId o = 0; o < 4; ++o)
                    is_mapped = is_mapped ||
                        f.sys.cohAt(o).spmDirRef().lookup(b).has_value();
                EXPECT_FALSE(is_mapped)
                    << "filter caches a mapped base, step " << step;
                // 2. Tracked at the home slice with us as sharer.
                const CoreId home = f.sys.cohFabric().homeFor(b);
                EXPECT_TRUE(f.sys.filterDirAt(home).tracks(b))
                    << "untracked filter content, step " << step;
                EXPECT_TRUE(f.sys.filterDirAt(home).sharersOf(b) &
                            (1ull << c))
                    << "missing sharer bit, step " << step;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterInvariant,
                         ::testing::Values(9, 77, 555));

} // namespace
} // namespace spmcoh
