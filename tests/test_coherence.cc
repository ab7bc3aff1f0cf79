/**
 * @file
 * Tests for the SPM coherence protocol (the paper's contribution):
 * the SPMDir / Filter structures, the four guarded-access cases of
 * Fig. 5, the filter invalidation and update flows of Fig. 6,
 * evictions at both levels, the ideal-coherence oracle, and the
 * host-side shortcuts of the FilterDir broadcast (SPMDir signatures,
 * lowest-id owner, per-core probe counts folded after the run).
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/Rng.hh"
#include "system/System.hh"

namespace spmcoh
{
namespace
{

constexpr std::uint32_t bufLog2 = 12;  // 4KB buffers
constexpr std::uint64_t bufBytes = 1ull << bufLog2;

SystemParams
protoParams(SystemMode m = SystemMode::HybridProto)
{
    return SystemParams::forMode(m, 4);
}

TEST(BufferConfig, MaskDecomposition)
{
    BufferConfig c;
    c.set(12);
    EXPECT_EQ(c.bytes(), 4096u);
    EXPECT_EQ(c.base(0x123456), 0x123000u);
    EXPECT_EQ(c.offset(0x123456), 0x456u);
    EXPECT_THROW(c.set(2), FatalError);
}

TEST(SpmDir, CamSemantics)
{
    SpmDir d(32);
    EXPECT_FALSE(d.lookup(0x1000).has_value());
    d.map(5, 0x1000);
    ASSERT_TRUE(d.lookup(0x1000).has_value());
    EXPECT_EQ(*d.lookup(0x1000), 5u);
    d.map(5, 0x2000);  // remap overwrites
    EXPECT_FALSE(d.lookup(0x1000).has_value());
    EXPECT_EQ(*d.lookup(0x2000), 5u);
    d.unmap(5);
    EXPECT_FALSE(d.lookup(0x2000).has_value());
    EXPECT_THROW(d.map(32, 0x0), PanicError);
}

TEST(SpmDir, LowestIndexWinsWhenABaseSitsInTwoBuffers)
{
    SpmDir d(32);
    d.map(9, 0x3000);
    d.map(4, 0x3000);
    EXPECT_EQ(*d.lookup(0x3000), 4u);
    d.unmap(4);
    EXPECT_EQ(*d.lookup(0x3000), 9u);
    d.map(2, 0x3000);
    EXPECT_EQ(*d.lookup(0x3000), 2u);
    d.map(2, 0x4000);  // remapping the lower buffer exposes the higher
    EXPECT_EQ(*d.lookup(0x3000), 9u);
    EXPECT_EQ(*d.lookup(0x4000), 2u);
    // ~0 is the empty-entry sentinel, never a mappable base.
    EXPECT_THROW(d.map(0, SpmDir::invalidBase), PanicError);
}

TEST(SpmDir, SignatureNeverMissesAMappedBase)
{
    SpmDir d(32);
    std::map<std::uint32_t, Addr> model;  // buffer -> mapped base
    Rng rng(7);
    auto check = [&] {
        for (const auto &[idx, base] : model) {
            ASSERT_TRUE(d.mayHold(base)) << "base " << base;
            // Lowest buffer holding the base answers the CAM.
            std::uint32_t lowest = idx;
            for (const auto &[i, b] : model)
                if (b == base && i < lowest)
                    lowest = i;
            ASSERT_EQ(d.lookup(base), lowest);
        }
    };
    for (int step = 0; step < 4000; ++step) {
        const auto idx = static_cast<std::uint32_t>(rng.below(32));
        // Few distinct bases, so remaps and duplicates are common.
        const Addr base = (rng.below(48) + 1) << bufLog2;
        const std::uint64_t op = rng.below(100);
        if (op < 60) {
            d.map(idx, base);
            model[idx] = base;
        } else if (op < 95) {
            d.unmap(idx);
            model.erase(idx);
        } else {
            d.clear();
            model.clear();
        }
        check();
    }
    // An empty directory rules every base out.
    d.clear();
    for (Addr b = 1; b <= 64; ++b)
        EXPECT_FALSE(d.mayHold(b << bufLog2));
}

TEST(Filter, HitBeatsAnEarlierFreeEntry)
{
    Filter f(4);
    for (Addr a = 1; a <= 4; ++a)
        f.insert(a * 0x1000);
    EXPECT_TRUE(f.invalidate(0x1000));  // entry 0 is free now
    // Re-inserting a cached base finds it instead of filling the
    // free entry, so no duplicate appears.
    EXPECT_FALSE(f.insert(0x4000).has_value());
    EXPECT_EQ(f.occupancy(), 3u);
    EXPECT_TRUE(f.invalidate(0x4000));
    EXPECT_FALSE(f.contains(0x4000));
    // The freed entries are reused before anything is evicted.
    EXPECT_FALSE(f.insert(0x5000).has_value());
    EXPECT_FALSE(f.insert(0x6000).has_value());
    EXPECT_EQ(f.occupancy(), 4u);
    f.clear();
    EXPECT_EQ(f.occupancy(), 0u);
    EXPECT_FALSE(f.contains(0x2000));
}

TEST(Filter, InsertLookupEvict)
{
    Filter f(4);
    EXPECT_FALSE(f.lookup(0x1000));
    for (Addr a = 0; a < 4; ++a)
        EXPECT_FALSE(f.insert(0x1000 * (a + 1)).has_value());
    EXPECT_EQ(f.occupancy(), 4u);
    // Full: inserting evicts some victim.
    auto ev = f.insert(0x9000);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(f.lookup(0x9000));
    EXPECT_FALSE(f.lookup(*ev));
    // Re-inserting an existing base is a no-op.
    EXPECT_FALSE(f.insert(0x9000).has_value());
    EXPECT_TRUE(f.invalidate(0x9000));
    EXPECT_FALSE(f.lookup(0x9000));
    EXPECT_FALSE(f.invalidate(0x9000));
}

TEST(Oracle, MapUnmapLookup)
{
    Oracle o;
    o.map(0x4000, 3, 7);
    auto m = o.lookup(0x4000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->core, 3u);
    EXPECT_EQ(m->bufferIdx, 7u);
    o.unmap(0x4000);
    EXPECT_FALSE(o.lookup(0x4000).has_value());
}

/** Fig. 5a/5c: not mapped anywhere -> filter update then cache. */
TEST(GuardedAccess, FilterMissThenHit)
{
    System sys(protoParams());
    sys.cohAt(0).setBufferConfig(bufLog2);
    const Addr addr = 0x100040;

    // First access: SPMDir miss + filter miss -> Pending (Fig. 5c).
    GuardProbe g = sys.cohAt(0).probeGuarded(addr, false);
    EXPECT_EQ(g.kind, GuardProbe::Kind::Pending);

    bool by_spm = true;
    bool done = false;
    sys.cohAt(0).resolveGuarded(addr, 8, false, 0,
                                [&](bool s, std::uint64_t) {
        by_spm = s;
        done = true;
    });
    sys.events().run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(by_spm);  // serve from the cache hierarchy

    // The base is now cached in the filter (Fig. 5a) and tracked by
    // its FilterDir home slice with us as sharer.
    g = sys.cohAt(0).probeGuarded(addr, false);
    EXPECT_EQ(g.kind, GuardProbe::Kind::UseCache);
    const Addr base = sys.cohFabric().config.base(addr);
    const CoreId home = sys.cohFabric().homeFor(base);
    EXPECT_TRUE(sys.filterDirAt(home).tracks(base));
    EXPECT_EQ(sys.filterDirAt(home).sharersOf(base) & 1u, 1u);
}

/** Fig. 5b: mapped in the local SPM -> diverted locally. */
TEST(GuardedAccess, LocalSpmHit)
{
    System sys(protoParams());
    sys.cohAt(0).setBufferConfig(bufLog2);
    const Addr gm_base = 0x200000;  // aligned to 4KB
    sys.cohAt(0).mapBuffer(2, gm_base, 0);
    sys.events().run();  // drain the Fig. 6a invalidation

    GuardProbe g = sys.cohAt(0).probeGuarded(gm_base + 0x128, false);
    EXPECT_EQ(g.kind, GuardProbe::Kind::LocalSpm);
    EXPECT_EQ(g.spmAddr,
              sys.addressMap().localSpmBase(0) + 2 * bufBytes + 0x128);
    EXPECT_GT(g.extraLat, 0u);
    EXPECT_EQ(sys.cohAt(0).statGroup().value("spmdirHits"), 1u);
}

/** Fig. 5d: mapped in a remote SPM -> served remotely. */
TEST(GuardedAccess, RemoteSpmServesLoadAndStore)
{
    System sys(protoParams());
    for (CoreId c = 0; c < 4; ++c)
        sys.cohAt(c).setBufferConfig(bufLog2);
    const Addr gm_base = 0x300000;
    sys.cohAt(1).mapBuffer(0, gm_base, 0);
    sys.events().run();
    sys.spmAt(1).write(0x40, 8, 777);

    // Core 0 probes: unknown -> Pending -> resolved by core 1's SPM.
    GuardProbe g = sys.cohAt(0).probeGuarded(gm_base + 0x40, false);
    EXPECT_EQ(g.kind, GuardProbe::Kind::Pending);
    bool by_spm = false;
    std::uint64_t val = 0;
    sys.cohAt(0).resolveGuarded(gm_base + 0x40, 8, false, 0,
                                [&](bool s, std::uint64_t v) {
        by_spm = s;
        val = v;
    });
    sys.events().run();
    EXPECT_TRUE(by_spm);
    EXPECT_EQ(val, 777u);

    // Remote guarded store writes the remote SPM.
    bool st_done = false;
    sys.cohAt(0).resolveGuarded(gm_base + 0x48, 8, true, 888,
                                [&](bool s, std::uint64_t) {
        EXPECT_TRUE(s);
        st_done = true;
    });
    sys.events().run();
    EXPECT_TRUE(st_done);
    EXPECT_EQ(sys.spmAt(1).read(0x48, 8), 888u);

    // The base must NOT have been inserted into core 0's filter.
    EXPECT_EQ(sys.cohAt(0).probeGuarded(gm_base + 0x40, false).kind,
              GuardProbe::Kind::Pending);
}

/** Fig. 5d with two owners: the lowest-id non-requestor serves. */
TEST(GuardedAccess, LowestIdRemoteOwnerServesTheBroadcast)
{
    System sys(protoParams());
    for (CoreId c = 0; c < 4; ++c)
        sys.cohAt(c).setBufferConfig(bufLog2);
    const Addr gm_base = 0x340000;
    sys.cohAt(3).mapBuffer(0, gm_base, 0);
    sys.cohAt(1).mapBuffer(2, gm_base, 0);
    sys.events().run();
    sys.spmAt(3).write(0x40, 8, 333);
    sys.spmAt(1).write(2 * bufBytes + 0x40, 8, 111);

    std::uint64_t val = 0;
    sys.cohAt(0).resolveGuarded(gm_base + 0x40, 8, false, 0,
                                [&](bool s, std::uint64_t v) {
        EXPECT_TRUE(s);
        val = v;
    });
    sys.events().run();
    EXPECT_EQ(val, 111u);  // core 1, not core 3

    // Core 1 asking skips itself: core 3 is the lowest other owner.
    sys.cohAt(1).resolveGuarded(gm_base + 0x40, 8, false, 0,
                                [&](bool s, std::uint64_t v) {
        EXPECT_TRUE(s);
        val = v;
    });
    sys.events().run();
    EXPECT_EQ(val, 333u);
    const CoreId home = sys.cohFabric().homeFor(gm_base);
    EXPECT_EQ(sys.filterDirAt(home).statGroup().value("remoteHits"), 2u);
}

/** OpSource with nothing to run: the core finishes at once. */
class EmptySource : public OpSource
{
  public:
    bool next(MicroOp &) override { return false; }
};

/**
 * Every broadcast probes each SPMDir except the requestor's, so a
 * core's spmdirProbes is the number of broadcasts it did not request.
 * The counts are folded in when System::run returns.
 */
TEST(FilterDirBroadcast, ProbesPerCore)
{
    System sys(protoParams());
    for (CoreId c = 0; c < 4; ++c)
        sys.cohAt(c).setBufferConfig(bufLog2);
    // Bases mapped in a remote SPM are never installed in the
    // FilterDir, so every request for one broadcasts; so does the
    // first request for an unmapped base.
    const Addr mapped = 0x900000;
    const Addr unmapped = 0xa00000;
    sys.cohAt(3).mapBuffer(0, mapped, 0);
    int done = 0;
    auto cb = [&](bool, std::uint64_t) { ++done; };
    sys.cohAt(0).resolveGuarded(mapped + 0x08, 8, false, 0, cb);
    sys.cohAt(1).resolveGuarded(mapped + 0x10, 8, false, 0, cb);
    sys.cohAt(1).resolveGuarded(mapped + 0x18, 8, false, 0, cb);
    sys.cohAt(2).resolveGuarded(unmapped, 8, false, 0, cb);

    std::vector<std::unique_ptr<OpSource>> sources;
    for (CoreId c = 0; c < 4; ++c)
        sources.push_back(std::make_unique<EmptySource>());
    ASSERT_TRUE(sys.run(std::move(sources)));
    EXPECT_EQ(done, 4);

    std::uint64_t broadcasts = 0;
    for (CoreId c = 0; c < 4; ++c)
        broadcasts += sys.filterDirAt(c).statGroup().value("broadcasts");
    EXPECT_EQ(broadcasts, 4u);
    const std::uint64_t requested[4] = {1, 2, 1, 0};
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(sys.cohAt(c).statGroup().value("spmdirProbes"),
                  broadcasts - requested[c])
            << "core " << c;
}

/** Fig. 6a: mapping invalidates remote filter entries. */
TEST(FilterInvalidation, MappingClearsRemoteFilters)
{
    System sys(protoParams());
    for (CoreId c = 0; c < 4; ++c)
        sys.cohAt(c).setBufferConfig(bufLog2);
    const Addr gm_base = 0x400000;

    // Core 0 caches "not mapped" in its filter.
    bool done = false;
    sys.cohAt(0).resolveGuarded(gm_base + 8, 8, false, 0,
                                [&](bool, std::uint64_t) {
        done = true;
    });
    sys.events().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(sys.cohAt(0).probeGuarded(gm_base + 8, false).kind,
              GuardProbe::Kind::UseCache);

    // Core 2 maps the chunk; the token pins DMA tag 4 until the
    // invalidation round trip completes.
    sys.cohAt(2).mapBuffer(1, gm_base, 4);
    EXPECT_FALSE(sys.dmacAt(2).quiescent(1u << 4));
    sys.events().run();
    EXPECT_TRUE(sys.dmacAt(2).quiescent(1u << 4));

    // Core 0's filter no longer claims the base; a fresh probe goes
    // Pending and resolves to the remote SPM.
    EXPECT_EQ(sys.cohAt(0).probeGuarded(gm_base + 8, false).kind,
              GuardProbe::Kind::Pending);
    EXPECT_GT(sys.cohAt(0).statGroup().value("filterInvalsReceived"),
              0u);
    const CoreId home = sys.cohFabric().homeFor(gm_base);
    EXPECT_FALSE(sys.filterDirAt(home).tracks(gm_base));
}

/** Filter eviction notifies the FilterDir (sharer removal). */
TEST(FilterEviction, NotifiesFilterDir)
{
    SystemParams p = protoParams();
    p.coh.filterEntries = 2;  // tiny filter forces evictions
    System sys(p);
    sys.cohAt(0).setBufferConfig(bufLog2);

    std::vector<Addr> bases;
    for (int i = 0; i < 3; ++i)
        bases.push_back(0x500000 + static_cast<Addr>(i) * bufBytes);
    for (Addr b : bases) {
        bool done = false;
        sys.cohAt(0).resolveGuarded(b, 8, false, 0,
                                    [&](bool, std::uint64_t) {
            done = true;
        });
        sys.events().run();
        ASSERT_TRUE(done);
    }
    EXPECT_GT(sys.cohAt(0).statGroup().value("filterEvictions"), 0u);
    // The evicted base's home slice no longer lists core 0.
    std::uint32_t still_shared = 0;
    for (Addr b : bases) {
        const CoreId home = sys.cohFabric().homeFor(b);
        if (sys.filterDirAt(home).sharersOf(b) & 1u)
            ++still_shared;
    }
    EXPECT_EQ(still_shared, 2u);
}

/** FilterDir eviction invalidates every sharer's filter. */
TEST(FilterDirEviction, DrainsSharers)
{
    SystemParams p = protoParams();
    p.filterDir.entriesPerSlice = 2;
    System sys(p);
    sys.cohAt(0).setBufferConfig(bufLog2);

    // All bases map to the same home slice: stride by
    // bufBytes * numCores.
    const Addr stride = bufBytes * 4;
    std::vector<Addr> bases;
    for (int i = 0; i < 3; ++i)
        bases.push_back(0x600000 + static_cast<Addr>(i) * stride);
    for (Addr b : bases) {
        bool done = false;
        sys.cohAt(0).resolveGuarded(b, 8, false, 0,
                                    [&](bool, std::uint64_t) {
            done = true;
        });
        sys.events().run();
        ASSERT_TRUE(done);
    }
    // One of the first two bases was evicted from the slice and its
    // filter entry dropped at core 0.
    std::uint32_t in_filter = 0;
    for (Addr b : bases)
        if (sys.cohAt(0).filterRef().contains(b))
            ++in_filter;
    EXPECT_EQ(in_filter, 2u);
}

/** Ideal coherence: zero protocol traffic, oracle-driven diversion. */
TEST(IdealCoherence, NoTrackingTraffic)
{
    System sys(protoParams(SystemMode::HybridIdeal));
    sys.cohAt(0).setBufferConfig(bufLog2);
    const Addr gm_base = 0x700000;

    // Unmapped: UseCache with zero latency and zero packets.
    EXPECT_EQ(sys.cohAt(0).probeGuarded(gm_base, false).kind,
              GuardProbe::Kind::UseCache);
    EXPECT_EQ(sys.mesh().traffic().classPackets(TrafficClass::CohProt),
              0u);

    // Local mapping: diverted with no messages.
    sys.cohAt(0).mapBuffer(0, gm_base, 0);
    EXPECT_EQ(sys.cohAt(0).probeGuarded(gm_base + 8, false).kind,
              GuardProbe::Kind::LocalSpm);
    EXPECT_EQ(sys.mesh().traffic().classPackets(TrafficClass::CohProt),
              0u);
    EXPECT_TRUE(sys.dmacAt(0).quiescent(0xffffffff));

    // Remote mapping: data still moves (2 packets), nothing else.
    sys.cohAt(1).mapBuffer(0, 0x800000, 0);
    sys.spmAt(1).write(0x10, 8, 31337);
    EXPECT_EQ(sys.cohAt(0).probeGuarded(0x800010, false).kind,
              GuardProbe::Kind::Pending);
    std::uint64_t val = 0;
    sys.cohAt(0).resolveGuarded(0x800010, 8, false, 0,
                                [&](bool s, std::uint64_t v) {
        EXPECT_TRUE(s);
        val = v;
    });
    sys.events().run();
    EXPECT_EQ(val, 31337u);
    EXPECT_EQ(sys.mesh().traffic().classPackets(TrafficClass::CohProt),
              2u);
}

/** Direct (non-guarded) remote SPM access over the mesh. */
TEST(RemoteSpm, DirectLoadStore)
{
    System sys(protoParams());
    const Addr remote = sys.addressMap().localSpmBase(2) + 0x100;
    bool done = false;
    sys.cohAt(0).remoteSpmAccess(remote, 8, true, 555,
                                 [&](bool, std::uint64_t) {
        done = true;
    });
    sys.events().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys.spmAt(2).read(0x100, 8), 555u);

    std::uint64_t val = 0;
    sys.cohAt(0).remoteSpmAccess(remote, 8, false, 0,
                                 [&](bool, std::uint64_t v) {
        val = v;
    });
    sys.events().run();
    EXPECT_EQ(val, 555u);
}

/** Unaligned chunk bases are a protocol violation. */
TEST(MapBuffer, RejectsMisalignedBase)
{
    System sys(protoParams());
    sys.cohAt(0).setBufferConfig(bufLog2);
    EXPECT_THROW(sys.cohAt(0).mapBuffer(0, 0x100010, 0), PanicError);
}

} // namespace
} // namespace spmcoh
