/**
 * @file
 * Property-based test of the MOESI directory protocol: random load /
 * store / DMA sequences from several cores are checked against a
 * flat reference memory. Because the fabric serializes each test
 * access (run to quiescence between accesses), the reference model
 * is exact; any divergence indicates a protocol data-loss bug.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "mem/DirectorySlice.hh"
#include "mem/L1Cache.hh"
#include "mem/MainMemory.hh"
#include "mem/MemNet.hh"
#include "protocols/ProtocolFactory.hh"
#include "sim/Rng.hh"

namespace spmcoh
{
namespace
{

struct Fabric4
{
    static constexpr std::uint32_t cores = 4;
    EventQueue eq;
    Mesh mesh;
    MainMemory mem;
    std::unique_ptr<MemNet> net;
    std::vector<std::unique_ptr<MemCtrl>> mcs;
    std::vector<std::unique_ptr<DirectorySlice>> dirs;
    std::vector<std::unique_ptr<L1Cache>> l1s;

    explicit Fabric4(const DirSliceParams &dp = DirSliceParams{},
                     const L1Params &lp = L1Params{},
                     const CoherenceProtocol &proto =
                         ProtocolFactory::defaultProtocol())
        : mesh(eq, MeshParams{.width = 2, .height = 2})
    {
        net = std::make_unique<MemNet>(eq, mesh, cores,
                                       std::vector<CoreId>{0, 3});
        for (std::uint32_t i = 0; i < 2; ++i) {
            mcs.push_back(std::make_unique<MemCtrl>(
                eq, *net, mem, i, i == 0 ? 0 : 3, MemCtrlParams{}));
            MemCtrl *mc = mcs.back().get();
            net->setHandler(Endpoint::MemCtrl, i,
                            [mc](const Message &m) { mc->handle(m); });
        }
        for (CoreId i = 0; i < cores; ++i) {
            dirs.push_back(std::make_unique<DirectorySlice>(
                *net, i, dp, "dir" + std::to_string(i), proto));
            DirectorySlice *d = dirs.back().get();
            net->setHandler(Endpoint::Dir, i,
                            [d](const Message &m) { d->handle(m); });
            l1s.push_back(std::make_unique<L1Cache>(
                *net, i, false, lp, "l1d" + std::to_string(i),
                proto));
            L1Cache *l1 = l1s.back().get();
            net->setHandler(Endpoint::L1D, i,
                            [l1](const Message &m) { l1->handle(m); });
        }
    }

    /** Valid lines across the L1s and L2 slices: each holds one
     *  LinePool slot. */
    std::uint64_t
    heldLines() const
    {
        std::uint64_t n = 0;
        for (CoreId i = 0; i < cores; ++i)
            n += l1s[i]->residentLines() + dirs[i]->l2Lines();
        return n;
    }

    /** Run the access to quiescence. One access settles in a few
     *  hundred ticks, so a livelock fails here instead of spinning. */
    void
    drain()
    {
        EXPECT_TRUE(eq.run(eq.now() + 1'000'000))
            << "the fabric did not drain by tick " << eq.now();
    }

    std::uint64_t
    load(CoreId c, Addr a)
    {
        Tick lat = 0;
        if (auto v = l1s[c]->tryLoad(a, 8, eq.now(), c, lat))
            return *v;
        std::uint64_t out = 0;
        bool done = false;
        EXPECT_TRUE(l1s[c]->startLoad(a, 8, [&](std::uint64_t v) {
            out = v;
            done = true;
        }));
        drain();
        EXPECT_TRUE(done);
        return out;
    }

    void
    store(CoreId c, Addr a, std::uint64_t v)
    {
        Tick lat = 0;
        if (l1s[c]->tryStore(a, 8, v, eq.now(), c, lat))
            return;
        bool done = false;
        EXPECT_TRUE(l1s[c]->startStore(a, 8, v,
                                       [&](std::uint64_t) {
            done = true;
        }));
        drain();
        EXPECT_TRUE(done);
    }

    /** Coherent DMA line read straight at the home directory. */
    LineData
    dmaRead(Addr line)
    {
        LineData out;
        bool done = false;
        const CoreId home = net->homeSlice(line);
        // Register a throwaway DMAC handler on core 0.
        net->setHandler(Endpoint::Dmac, 0, [&](const Message &m) {
            EXPECT_EQ(m.type, MsgType::DmaReadResp);
            out = m.data;
            done = true;
        });
        Message m;
        m.type = MsgType::DmaRead;
        m.addr = line;
        m.requestor = 0;
        m.cls = TrafficClass::Dma;
        net->send(0, Endpoint::Dir, home, m, TrafficClass::Dma);
        drain();
        EXPECT_TRUE(done);
        return out;
    }

    void
    dmaWrite(Addr line, const LineData &d)
    {
        bool done = false;
        const CoreId home = net->homeSlice(line);
        net->setHandler(Endpoint::Dmac, 0, [&](const Message &m) {
            EXPECT_EQ(m.type, MsgType::DmaWriteAck);
            done = true;
        });
        Message m;
        m.type = MsgType::DmaWrite;
        m.addr = line;
        m.requestor = 0;
        m.hasData = true;
        m.data = d;
        m.cls = TrafficClass::Dma;
        net->send(0, Endpoint::Dir, home, m, TrafficClass::Dma);
        drain();
        EXPECT_TRUE(done);
    }
};

/**
 * Randomized read/write/DMA agreement with a reference memory, run
 * once per (seed, registered protocol) pair: the data-preservation
 * property is protocol-independent.
 */
class MoesiProperty : public ::testing::TestWithParam<
                          std::tuple<std::uint64_t, std::string>>
{
  protected:
    const CoherenceProtocol &
    proto() const
    {
        return ProtocolFactory::global().get(
            std::get<1>(GetParam()));
    }

    std::uint64_t seed() const { return std::get<0>(GetParam()); }
};

TEST_P(MoesiProperty, AgreesWithReferenceMemory)
{
    // Small caches + tiny directory to force evictions and recalls.
    DirSliceParams dp;
    dp.l2SizeBytes = 8 * 1024;
    dp.dirEntries = 64;
    L1Params lp;
    lp.sizeBytes = 2 * 1024;
    Fabric4 f(dp, lp, proto());

    Rng rng(seed());
    std::map<Addr, std::uint64_t> ref;
    // 24 hot lines spread over 4 home slices.
    const Addr base = 0x40000;
    const std::uint32_t num_lines = 24;

    for (int step = 0; step < 600; ++step) {
        const CoreId c = static_cast<CoreId>(rng.below(4));
        const Addr a =
            base + rng.below(num_lines) * lineBytes +
            rng.below(8) * 8;
        const std::uint32_t action = static_cast<std::uint32_t>(
            rng.below(10));
        if (action < 5) {
            const std::uint64_t expect =
                ref.count(a) ? ref[a] : 0;
            EXPECT_EQ(f.load(c, a), expect)
                << "load mismatch at step " << step;
        } else if (action < 9) {
            const std::uint64_t v = rng.next();
            f.store(c, a, v);
            ref[a] = v;
        } else if (action == 9) {
            // DMA read of the whole line must observe all reference
            // values currently in that line.
            const Addr line = lineAlign(a);
            LineData d = f.dmaRead(line);
            for (std::uint32_t off = 0; off < lineBytes; off += 8) {
                const Addr w = line + off;
                const std::uint64_t expect =
                    ref.count(w) ? ref[w] : 0;
                EXPECT_EQ(d.read64(off), expect)
                    << "dma mismatch at step " << step;
            }
        }
    }
    // Everything drains; no stuck transactions.
    EXPECT_EQ(f.eq.pending(), 0u);
}

TEST_P(MoesiProperty, DmaWriteInvalidatesEverywhere)
{
    Fabric4 f(DirSliceParams{}, L1Params{}, proto());
    Rng rng(seed() ^ 0x5555);
    for (int round = 0; round < 50; ++round) {
        const Addr line =
            0x80000 + rng.below(8) * lineBytes;
        // Populate some caches.
        f.store(static_cast<CoreId>(rng.below(4)), line, rng.next());
        f.load(static_cast<CoreId>(rng.below(4)), line + 8);
        // DMA overwrite of the full line.
        LineData d;
        for (std::uint32_t off = 0; off < lineBytes; off += 8)
            d.write64(off, round * 100 + off);
        f.dmaWrite(line, d);
        // Every core must observe the DMA data afterwards.
        const CoreId reader = static_cast<CoreId>(rng.below(4));
        EXPECT_EQ(f.load(reader, line + 16), round * 100 + 16u);
    }
}

TEST_P(MoesiProperty, ThrashStaysWithinLinePoolCapacity)
{
    // 32-line L1s, 64-line L2 slices and a 64-entry directory under
    // 512 lines: dirty evictions, L2 writebacks and recalls all the
    // time.
    DirSliceParams dp;
    dp.l2SizeBytes = 4 * 1024;
    dp.dirEntries = 64;
    L1Params lp;
    lp.sizeBytes = 2 * 1024;
    Fabric4 f(dp, lp, proto());
    const std::uint32_t capacity =
        Fabric4::cores * (lp.sizeBytes + dp.l2SizeBytes) / lineBytes;
    const LinePool &pool = f.net->linePool();

    Rng rng(seed() ^ 0xa5a5);
    std::map<Addr, std::uint64_t> ref;
    for (int step = 0; step < 3000; ++step) {
        const CoreId c = static_cast<CoreId>(rng.below(4));
        const Addr a =
            0x100000 + rng.below(512) * lineBytes + rng.below(8) * 8;
        if (rng.below(2)) {
            const std::uint64_t v = rng.next();
            f.store(c, a, v);
            ref[a] = v;
        } else {
            ASSERT_EQ(f.load(c, a), ref.count(a) ? ref[a] : 0)
                << "step " << step;
        }
        ASSERT_EQ(pool.live(), f.heldLines()) << "step " << step;
        ASSERT_LE(pool.slots(), capacity) << "step " << step;
    }
    std::uint64_t dirty = 0, invals = 0;
    for (CoreId i = 0; i < Fabric4::cores; ++i) {
        dirty += f.l1s[i]->statGroup().value("dirtyWritebacks");
        invals += f.l1s[i]->statGroup().value("invalidationsReceived");
    }
    EXPECT_GT(dirty, 0u);
    EXPECT_GT(invals, 0u);
    // Every value reads back intact, from any core.
    for (const auto &[a, v] : ref)
        EXPECT_EQ(f.load(static_cast<CoreId>(rng.below(4)), a), v);
    EXPECT_LE(pool.slots(), capacity);
}

std::string
paramName(const ::testing::TestParamInfo<
          std::tuple<std::uint64_t, std::string>> &info)
{
    std::string n = std::get<1>(info.param);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return "seed" + std::to_string(std::get<0>(info.param)) + "_" + n;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesProtocols, MoesiProperty,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 11, 29, 97),
        ::testing::ValuesIn(ProtocolFactory::global().names())),
    paramName);

} // namespace
} // namespace spmcoh
