/**
 * @file
 * Unit tests for the SPM + DMAC substrate: address map, SPM storage,
 * coherent dma-get/dma-put, tag synchronization and queue limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "system/System.hh"

namespace spmcoh
{
namespace
{

SystemParams
smallParams(SystemMode m = SystemMode::HybridProto)
{
    return SystemParams::forMode(m, 4);
}

TEST(AddressMap, SpmRangeChecks)
{
    AddressMap am(64, 32 * 1024);
    const Addr base = AddressMap::defaultSpmBase;
    EXPECT_FALSE(am.isSpmAddr(base - 1));
    EXPECT_TRUE(am.isSpmAddr(base));
    EXPECT_TRUE(am.isSpmAddr(base + 64 * 32 * 1024 - 1));
    EXPECT_FALSE(am.isSpmAddr(base + 64 * 32 * 1024));
    EXPECT_EQ(am.spmOwner(base + 32 * 1024 * 5 + 100), 5u);
    EXPECT_EQ(am.spmOffset(base + 32 * 1024 * 5 + 100), 100u);
    EXPECT_EQ(am.localSpmBase(3), base + 3 * 32 * 1024);
}

TEST(Spm, ReadWriteRoundTrip)
{
    Spm s(32 * 1024, 2, "spm");
    s.write(100, 8, 0x1122334455667788ULL);
    EXPECT_EQ(s.read(100, 8), 0x1122334455667788ULL);
    EXPECT_EQ(s.read(100, 4), 0x55667788u);
    s.write(0, 1, 0xff);
    EXPECT_EQ(s.read(0, 1), 0xffu);
    EXPECT_EQ(s.statGroup().value("reads"), 3u);
    EXPECT_EQ(s.statGroup().value("writes"), 2u);
}

TEST(Spm, OutOfRangePanics)
{
    Spm s(1024, 2, "spm");
    EXPECT_THROW(s.read(1020, 8), PanicError);
}

TEST(Spm, UnwrittenBytesReadZeroWithoutAllocating)
{
    Spm spm(32 * 1024, 2, "spm");
    EXPECT_EQ(spm.read(0, 8), 0u);
    EXPECT_EQ(spm.read(32 * 1024 - 8, 8), 0u);
    std::uint8_t line[lineBytes];
    std::fill(std::begin(line), std::end(line), 0xff);
    spm.drainBlock(4096, line, lineBytes);
    for (const std::uint8_t b : line)
        EXPECT_EQ(b, 0u);
    EXPECT_EQ(spm.pagesAllocated(), 0u);
    // A write allocates its page only; its neighbours still read 0.
    spm.write(5000, 2, 0xbeef);
    EXPECT_EQ(spm.pagesAllocated(), 1u);
    EXPECT_EQ(spm.read(5000, 2), 0xbeefu);
    EXPECT_EQ(spm.read(5002, 8), 0u);
    EXPECT_EQ(spm.read(0, 8), 0u);
}

TEST(Spm, AccessesAcrossPageEdgesRoundTrip)
{
    Spm spm(32 * 1024, 2, "spm");
    // A word straddling the first page edge lands in both pages.
    spm.write(4092, 8, 0x0102030405060708ull);
    EXPECT_EQ(spm.pagesAllocated(), 2u);
    EXPECT_EQ(spm.read(4092, 8), 0x0102030405060708ull);
    EXPECT_EQ(spm.read(4092, 4), 0x05060708u);
    EXPECT_EQ(spm.read(4096, 4), 0x01020304u);
    // A block straddling the third edge, into a page never written.
    std::uint8_t in[lineBytes], out[lineBytes];
    for (std::uint32_t i = 0; i < lineBytes; ++i)
        in[i] = static_cast<std::uint8_t>(i + 1);
    spm.fillBlock(3 * 4096 - 32, in, lineBytes);
    EXPECT_EQ(spm.pagesAllocated(), 4u);
    spm.drainBlock(3 * 4096 - 32, out, lineBytes);
    EXPECT_TRUE(std::equal(std::begin(in), std::end(in), out));
    // The last byte of the SPM.
    spm.write(32 * 1024 - 1, 1, 0x7f);
    EXPECT_EQ(spm.read(32 * 1024 - 1, 1), 0x7fu);
}

TEST(Spm, RangeCheckDoesNotWrap)
{
    Spm spm(32 * 1024, 2, "spm");
    // off + n wraps to 4 in 32 bits; the access is still out of range.
    EXPECT_THROW(spm.read(0xfffffffcu, 8), PanicError);
    EXPECT_THROW(spm.write(0xfffffffcu, 8, 1), PanicError);
    std::uint8_t line[lineBytes] = {};
    EXPECT_THROW(spm.fillBlock(0xffffffc0u, line, lineBytes), PanicError);
    EXPECT_THROW(spm.read(32 * 1024 - 4, 8), PanicError);
    // An empty block at the very end is in range and touches nothing.
    spm.fillBlock(32 * 1024, line, 0);
    spm.drainBlock(32 * 1024, line, 0);
    EXPECT_EQ(spm.pagesAllocated(), 0u);
}

TEST(DmaGet, CopiesMemoryIntoSpm)
{
    System sys(smallParams());
    const Addr gm = 0x100000;
    for (std::uint32_t i = 0; i < 16; ++i)
        sys.memory().write64(gm + i * 8, i + 1);

    DmaCommand c;
    c.isGet = true;
    c.gmAddr = gm;
    c.spmAddr = sys.addressMap().localSpmBase(1);
    c.bytes = 128;
    c.tag = 3;
    EXPECT_TRUE(sys.dmacAt(1).enqueue(c));
    bool synced = false;
    sys.dmacAt(1).sync(1u << 3, [&] { synced = true; });
    sys.events().run();
    EXPECT_TRUE(synced);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(sys.spmAt(1).read(i * 8, 8), i + 1);
}

TEST(DmaGet, SnoopsDirtyCacheData)
{
    System sys(smallParams());
    const Addr gm = 0x200000;
    // Core 0 dirties the line in its L1.
    Tick lat = 0;
    if (!sys.l1dAt(0).tryStore(gm, 8, 4242, 0, 1, lat)) {
        bool done = false;
        ASSERT_TRUE(sys.l1dAt(0).startStore(gm, 8, 4242,
                                            [&](std::uint64_t) {
            done = true;
        }));
        sys.events().run();
        ASSERT_TRUE(done);
    }
    // dma-get must observe the cached value, not stale memory.
    DmaCommand c;
    c.isGet = true;
    c.gmAddr = gm;
    c.spmAddr = sys.addressMap().localSpmBase(2);
    c.bytes = lineBytes;
    c.tag = 0;
    ASSERT_TRUE(sys.dmacAt(2).enqueue(c));
    sys.events().run();
    EXPECT_EQ(sys.spmAt(2).read(0, 8), 4242u);
    // The owner keeps its dirty copy (snapshot semantics).
    EXPECT_EQ(*sys.l1dAt(0).peekState(gm), PState::M);
}

TEST(DmaPut, WritesMemoryAndInvalidatesCaches)
{
    System sys(smallParams());
    const Addr gm = 0x300000;
    // Cache the line (clean) at cores 0 and 1.
    bool d0 = false;
    ASSERT_TRUE(sys.l1dAt(0).startLoad(gm, 8,
                                       [&](std::uint64_t) {
        d0 = true;
    }));
    sys.events().run();
    ASSERT_TRUE(d0);
    bool d1 = false;
    ASSERT_TRUE(sys.l1dAt(1).startLoad(gm, 8,
                                       [&](std::uint64_t) {
        d1 = true;
    }));
    sys.events().run();
    ASSERT_TRUE(d1);

    // Fill SPM of core 3 and dma-put it over the line.
    for (std::uint32_t i = 0; i < 8; ++i)
        sys.spmAt(3).write(i * 8, 8, 1000 + i);
    DmaCommand c;
    c.isGet = false;
    c.gmAddr = gm;
    c.spmAddr = sys.addressMap().localSpmBase(3);
    c.bytes = lineBytes;
    c.tag = 1;
    ASSERT_TRUE(sys.dmacAt(3).enqueue(c));
    sys.events().run();

    // Caches invalidated...
    EXPECT_FALSE(sys.l1dAt(0).peekState(gm).has_value());
    EXPECT_FALSE(sys.l1dAt(1).peekState(gm).has_value());
    // ...and memory updated.
    EXPECT_EQ(sys.memory().read64(gm), 1000u);
    EXPECT_EQ(sys.memory().read64(gm + 56), 1007u);

    // The put dropped the L2 copy and both L1 copies and freed their
    // payload slots; the reload refills the line from memory into two
    // of those slots.
    const DirectorySlice &home = sys.dirAt(sys.memNet().homeSlice(gm));
    const LinePool &pool = sys.memNet().linePool();
    EXPECT_EQ(home.l2Lines(), 0u);
    EXPECT_EQ(pool.slots(), 3u);
    EXPECT_EQ(pool.live(), 0u);
    auto load = [&sys](Addr a) {
        std::uint64_t out = 0;
        bool done = false;
        EXPECT_TRUE(sys.l1dAt(0).startLoad(a, 8,
                                           [&](std::uint64_t v) {
            out = v;
            done = true;
        }));
        sys.events().run();
        EXPECT_TRUE(done);
        return out;
    };
    EXPECT_EQ(load(gm), 1000u);
    EXPECT_EQ(load(gm + 56), 1007u);
    EXPECT_EQ(home.l2Lines(), 1u);
    EXPECT_EQ(pool.slots(), 3u);
    EXPECT_EQ(pool.live(), 2u);
}

TEST(Dmac, SyncWaitsForAllTagsInMask)
{
    System sys(smallParams());
    DmaCommand a;
    a.isGet = true;
    a.gmAddr = 0x400000;
    a.spmAddr = sys.addressMap().localSpmBase(0);
    a.bytes = 4096;
    a.tag = 0;
    DmaCommand b = a;
    b.gmAddr = 0x500000;
    b.spmAddr = sys.addressMap().localSpmBase(0) + 4096;
    b.tag = 5;
    ASSERT_TRUE(sys.dmacAt(0).enqueue(a));
    ASSERT_TRUE(sys.dmacAt(0).enqueue(b));
    EXPECT_FALSE(sys.dmacAt(0).quiescent(1u << 0));
    EXPECT_FALSE(sys.dmacAt(0).quiescent(1u << 5));
    int fired = 0;
    sys.dmacAt(0).sync((1u << 0) | (1u << 5), [&] { ++fired; });
    sys.events().run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sys.dmacAt(0).quiescent(0xffffffff));
}

TEST(Dmac, TagTokensBlockSync)
{
    System sys(smallParams());
    sys.dmacAt(0).addTagToken(2);
    EXPECT_FALSE(sys.dmacAt(0).quiescent(1u << 2));
    bool fired = false;
    sys.dmacAt(0).sync(1u << 2, [&] { fired = true; });
    EXPECT_FALSE(fired);
    sys.dmacAt(0).completeTagToken(2);
    EXPECT_TRUE(fired);
}

TEST(Dmac, RejectsMisalignedAndForeignTransfers)
{
    System sys(smallParams());
    DmaCommand c;
    c.isGet = true;
    c.gmAddr = 0x100001;  // misaligned
    c.spmAddr = sys.addressMap().localSpmBase(0);
    c.bytes = lineBytes;
    EXPECT_THROW(sys.dmacAt(0).enqueue(c), FatalError);
    c.gmAddr = 0x100000;
    c.bytes = 60;         // not a line multiple
    EXPECT_THROW(sys.dmacAt(0).enqueue(c), FatalError);
    c.bytes = lineBytes;
    c.spmAddr = sys.addressMap().localSpmBase(1);  // remote SPM
    EXPECT_THROW(sys.dmacAt(0).enqueue(c), FatalError);
}

TEST(Dmac, CommandQueueFillsAndDrains)
{
    System sys(smallParams());
    DmacParams dp;
    std::uint32_t accepted = 0;
    for (std::uint32_t i = 0; i < dp.cmdQueueEntries + 8; ++i) {
        DmaCommand c;
        c.isGet = true;
        c.gmAddr = 0x600000 + i * 0x1000;
        c.spmAddr = sys.addressMap().localSpmBase(0);
        c.bytes = lineBytes;
        c.tag = 0;
        if (sys.dmacAt(0).enqueue(c))
            ++accepted;
    }
    EXPECT_GE(accepted, dp.cmdQueueEntries);
    EXPECT_LT(accepted, dp.cmdQueueEntries + 8);
    sys.events().run();
    // After draining, new commands are accepted again.
    DmaCommand c;
    c.isGet = true;
    c.gmAddr = 0x700000;
    c.spmAddr = sys.addressMap().localSpmBase(0);
    c.bytes = lineBytes;
    EXPECT_TRUE(sys.dmacAt(0).enqueue(c));
    sys.events().run();
}

TEST(Dmac, PutThenGetReusesBufferSafely)
{
    // In-order command processing: a put of the old buffer contents
    // followed by a get into the same buffer must not corrupt data.
    System sys(smallParams());
    const Addr gm_old = 0x800000;
    const Addr gm_new = 0x900000;
    for (std::uint32_t i = 0; i < 8; ++i) {
        sys.spmAt(0).write(i * 8, 8, 7000 + i);
        sys.memory().write64(gm_new + i * 8, 8000 + i);
    }
    DmaCommand put;
    put.isGet = false;
    put.gmAddr = gm_old;
    put.spmAddr = sys.addressMap().localSpmBase(0);
    put.bytes = lineBytes;
    put.tag = 0;
    DmaCommand get = put;
    get.isGet = true;
    get.gmAddr = gm_new;
    ASSERT_TRUE(sys.dmacAt(0).enqueue(put));
    ASSERT_TRUE(sys.dmacAt(0).enqueue(get));
    sys.events().run();
    EXPECT_EQ(sys.memory().read64(gm_old), 7000u);
    EXPECT_EQ(sys.memory().read64(gm_old + 56), 7007u);
    EXPECT_EQ(sys.spmAt(0).read(0, 8), 8000u);
}

} // namespace
} // namespace spmcoh
