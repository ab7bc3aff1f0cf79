/**
 * @file
 * Directed tests of the directory slice's less-traveled paths:
 * directory-entry recalls (back-invalidation), DMA forwards from
 * dirty owners, Owned-state transitions, instruction-fetch fills,
 * and L2 victim writebacks, using the full System for wiring.
 */

#include <gtest/gtest.h>

#include "system/System.hh"

namespace spmcoh
{
namespace
{

SystemParams
smallParams()
{
    return SystemParams::forMode(SystemMode::HybridProto, 4);
}

std::uint64_t
doLoad(System &sys, CoreId c, Addr a)
{
    Tick lat = 0;
    if (auto v = sys.l1dAt(c).tryLoad(a, 8, sys.events().now(), 1,
                                      lat))
        return *v;
    std::uint64_t out = 0;
    bool done = false;
    EXPECT_TRUE(sys.l1dAt(c).startLoad(a, 8,
                                       [&](std::uint64_t v) {
        out = v;
        done = true;
    }));
    sys.events().run();
    EXPECT_TRUE(done);
    return out;
}

/** Valid lines across every L1 and L2 slice: each holds one pool
 *  slot. */
std::uint32_t
heldLines(System &sys)
{
    std::uint64_t n = 0;
    for (CoreId i = 0; i < sys.params().numCores; ++i)
        n += sys.l1dAt(i).residentLines() + sys.l1iAt(i).residentLines() +
             sys.dirAt(i).l2Lines();
    return static_cast<std::uint32_t>(n);
}

void
doStore(System &sys, CoreId c, Addr a, std::uint64_t v)
{
    Tick lat = 0;
    if (sys.l1dAt(c).tryStore(a, 8, v, sys.events().now(), 1, lat))
        return;
    bool done = false;
    EXPECT_TRUE(sys.l1dAt(c).startStore(a, 8, v,
                                        [&](std::uint64_t) {
        done = true;
    }));
    sys.events().run();
    EXPECT_TRUE(done);
}

TEST(Directory, TracksExclusiveThenSharers)
{
    System sys(smallParams());
    const Addr a = 0x500000;
    const CoreId home = sys.memNet().homeSlice(a);
    doLoad(sys, 1, a);
    auto e = sys.dirAt(home).peekEntry(a);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->state, DirState::Excl);
    EXPECT_EQ(e->owner, 1u);

    doLoad(sys, 2, a);
    e = sys.dirAt(home).peekEntry(a);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_EQ(e->owner, invalidCore);
    EXPECT_EQ(e->sharers & 0b110u, 0b110u);
}

TEST(Directory, OwnedStateAfterDirtySharing)
{
    System sys(smallParams());
    const Addr a = 0x510000;
    const CoreId home = sys.memNet().homeSlice(a);
    doStore(sys, 0, a, 42);
    doLoad(sys, 3, a);
    auto e = sys.dirAt(home).peekEntry(a);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->state, DirState::Owned);
    EXPECT_EQ(e->owner, 0u);
    EXPECT_TRUE(e->sharers & (1u << 3));
    // Another reader is served by the owner and joins the sharers.
    EXPECT_EQ(doLoad(sys, 2, a), 42u);
    e = sys.dirAt(home).peekEntry(a);
    EXPECT_EQ(e->state, DirState::Owned);
    EXPECT_TRUE(e->sharers & (1u << 2));
}

TEST(Directory, PutMFromOwnerUpdatesL2AndFreesEntry)
{
    System sys(smallParams());
    const Addr a = 0x520000;
    const CoreId home = sys.memNet().homeSlice(a);
    const Addr set_stride = (32 * 1024) / 4;
    doStore(sys, 0, a, 99);
    // Evict the dirty line by filling its L1 set.
    for (int w = 1; w <= 4; ++w)
        doStore(sys, 0, a + static_cast<Addr>(w) * set_stride,
                static_cast<std::uint64_t>(w));
    sys.events().run();
    // Entry for the line is gone; the data survived in L2/memory.
    EXPECT_FALSE(sys.dirAt(home).peekEntry(a).has_value());
    EXPECT_EQ(doLoad(sys, 2, a), 99u);
}

TEST(Directory, RecallBackInvalidatesL1Copies)
{
    SystemParams p = smallParams();
    p.dir.dirEntries = 8;  // tiny: 2 sets x 4 ways per slice
    System sys(p);
    // Fill one slice's directory with exclusively-owned lines until a
    // recall must evict one of them.
    std::vector<Addr> lines;
    const CoreId victim_core = 0;
    for (int i = 0; i < 12; ++i) {
        // All lines home at slice 0: stride = numCores * lineBytes.
        const Addr a = 0x600000 + static_cast<Addr>(i) * 4 * lineBytes;
        doStore(sys, victim_core, a, 1000 + i);
        lines.push_back(a);
    }
    sys.events().run();
    // Some earlier line must have been recalled out of core 0's L1
    // (invalidated without core 0 asking for it).
    std::uint32_t resident = 0;
    for (Addr a : lines)
        resident += sys.l1dAt(victim_core).peekState(a).has_value();
    EXPECT_LT(resident, lines.size());
    EXPECT_GT(sys.dirAt(0).statGroup().value("recalls"), 0u);
    // No data was lost: every line still reads its stored value.
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(doLoad(sys, 1, lines[i]), 1000 + i);
}

TEST(Directory, DmaReadForwardsFromDirtyOwner)
{
    System sys(smallParams());
    const Addr a = 0x530000;
    doStore(sys, 2, a, 7777);
    // dma-get via DMAC 3: must see the dirty value without
    // disturbing the owner's M state (snapshot semantics).
    DmaCommand c;
    c.isGet = true;
    c.gmAddr = lineAlign(a);
    c.spmAddr = sys.addressMap().localSpmBase(3);
    c.bytes = lineBytes;
    c.tag = 0;
    ASSERT_TRUE(sys.dmacAt(3).enqueue(c));
    sys.events().run();
    EXPECT_EQ(sys.spmAt(3).read(lineOffset(a), 8), 7777u);
    EXPECT_EQ(*sys.l1dAt(2).peekState(a), PState::M);
    EXPECT_GT(sys.dirAt(sys.memNet().homeSlice(a))
                  .statGroup()
                  .value("dmaRead"),
              0u);
}

TEST(Directory, IfetchDoesNotAllocateEntries)
{
    System sys(smallParams());
    const Addr code = AddressMap::codeBase;
    const CoreId home = sys.memNet().homeSlice(code);
    bool done = false;
    ASSERT_TRUE(sys.l1iAt(1).startLoad(code, 8,
                                       [&](std::uint64_t) {
        done = true;
    }));
    sys.events().run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(sys.dirAt(home).peekEntry(code).has_value());
    EXPECT_GT(sys.dirAt(home).statGroup().value("ifetch"), 0u);
}

TEST(Directory, UpgradeFromSharedInvalidatesOtherSharer)
{
    System sys(smallParams());
    const Addr a = 0x540000;
    sys.memory().write64(a, 5);
    doLoad(sys, 0, a);
    doLoad(sys, 1, a);
    // Core 1 upgrades: core 0 must lose its copy.
    doStore(sys, 1, a, 6);
    EXPECT_FALSE(sys.l1dAt(0).peekState(a).has_value());
    EXPECT_EQ(*sys.l1dAt(1).peekState(a), PState::M);
    const CoreId home = sys.memNet().homeSlice(a);
    auto e = sys.dirAt(home).peekEntry(a);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->state, DirState::Excl);
    EXPECT_EQ(e->owner, 1u);
    EXPECT_EQ(doLoad(sys, 0, a), 6u);
}

TEST(Directory, L2DirtyVictimReachesMemory)
{
    SystemParams p = smallParams();
    p.dir.l2SizeBytes = 1024;  // 16 lines per slice
    System sys(p);
    const std::size_t capacity = p.dir.l2SizeBytes / lineBytes;
    // Dirty lines all homed at slice 0; force them through the tiny
    // L2 via L1 evictions, then verify memory-level durability.
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    const Addr set_stride = (32 * 1024) / 4;
    for (int i = 0; i < 24; ++i) {
        const Addr a = 0x700000 + static_cast<Addr>(i) * 4 * lineBytes;
        // One store, then four that evict it from L1 promptly.
        for (int w = 0; w <= 4; ++w) {
            const Addr aw = a + static_cast<Addr>(w) * set_stride;
            const std::uint64_t v = w == 0 ? 31337 + i : w;
            doStore(sys, 0, aw, v);
            writes.push_back({aw, v});
        }
        // Every valid line holds one pool slot; no slice outgrows
        // its capacity.
        EXPECT_EQ(sys.memNet().linePool().live(), heldLines(sys));
        for (CoreId s = 0; s < 4; ++s)
            EXPECT_LE(sys.dirAt(s).l2Lines(), capacity);
    }
    sys.events().run();
    EXPECT_EQ(sys.dirAt(0).l2Lines(), capacity);
    EXPECT_EQ(sys.memNet().linePool().live(), heldLines(sys));
    std::uint64_t wb = 0;
    for (CoreId i = 0; i < 4; ++i)
        wb += sys.dirAt(i).statGroup().value("l2DirtyEvictions");
    EXPECT_GT(wb, 0u);
    // Each line is written once and not yet re-read, so every dirty
    // L2 victim is a distinct line whose value is now in memory.
    std::uint64_t in_memory = 0;
    for (auto &[a, v] : writes) {
        if (const std::uint64_t m = sys.memory().read64(a)) {
            EXPECT_EQ(m, v);
            ++in_memory;
        }
    }
    EXPECT_EQ(in_memory, wb);
    for (auto &[a, v] : writes)
        EXPECT_EQ(doLoad(sys, 3, a), v);
}

TEST(Directory, FreshSliceHoldsNoL2Payload)
{
    System sys(smallParams());
    const LinePool &pool = sys.memNet().linePool();
    EXPECT_EQ(pool.slots(), 0u);
    // The first fill takes two payloads: the home slice's L2 line and
    // the requestor's L1 line.
    const Addr a = 0x560000;
    doLoad(sys, 1, a);
    const CoreId home = sys.memNet().homeSlice(a);
    for (CoreId i = 0; i < 4; ++i)
        EXPECT_EQ(sys.dirAt(i).l2Lines(), i == home ? 1u : 0u);
    EXPECT_EQ(sys.l1dAt(1).residentLines(), 1u);
    EXPECT_EQ(pool.slots(), 2u);
    EXPECT_EQ(pool.live(), 2u);
}

TEST(Directory, FreshSystemAllocatesNoLineStorage)
{
    for (const SystemMode m :
         {SystemMode::CacheOnly, SystemMode::HybridProto}) {
        System sys(SystemParams::forMode(m, 16));
        EXPECT_EQ(sys.memNet().linePool().slots(), 0u);
        for (CoreId i = 0; i < 16; ++i) {
            EXPECT_EQ(sys.l1dAt(i).setBlocks(), 0u);
            EXPECT_EQ(sys.l1iAt(i).setBlocks(), 0u);
            EXPECT_EQ(sys.dirAt(i).setBlocks(), 0u);
            EXPECT_EQ(sys.spmAt(i).pagesAllocated(), 0u);
        }
    }
    // One load fills one set of the L1D, the L2 and the directory.
    System sys(smallParams());
    const Addr a = 0x560000;
    doLoad(sys, 2, a);
    EXPECT_EQ(sys.l1dAt(2).setBlocks(), 1u);
    EXPECT_EQ(sys.l1iAt(2).setBlocks(), 0u);
    EXPECT_EQ(sys.dirAt(sys.memNet().homeSlice(a)).setBlocks(), 2u);
}

TEST(Directory, BlockingSerializesConflictingRequests)
{
    System sys(smallParams());
    const Addr a = 0x550000;
    // Fire three conflicting writes without draining; final state
    // must be coherent (single owner, last value readable).
    std::uint32_t done = 0;
    for (CoreId c = 0; c < 3; ++c) {
        Tick lat = 0;
        if (sys.l1dAt(c).tryStore(a, 8, 100 + c, sys.events().now(),
                                  1, lat)) {
            ++done;
        } else {
            ASSERT_TRUE(sys.l1dAt(c).startStore(
                a, 8, 100 + c,
                [&done](std::uint64_t) { ++done; }));
        }
    }
    sys.events().run();
    EXPECT_EQ(done, 3u);
    std::uint32_t owners = 0;
    for (CoreId c = 0; c < 4; ++c) {
        auto st = sys.l1dAt(c).peekState(a);
        if (st && (*st == PState::M || *st == PState::E))
            ++owners;
    }
    EXPECT_EQ(owners, 1u);
    const std::uint64_t v = doLoad(sys, 3, a);
    EXPECT_TRUE(v == 100 || v == 101 || v == 102);
}

} // namespace
} // namespace spmcoh
