/**
 * @file
 * Tests for the OoO core timing model: op stream consumption, issue
 * width, MLP windowing, store forwarding, barriers, DMA sync, phase
 * accounting and the Sec. 3.4 LSQ re-check squash.
 */

#include <gtest/gtest.h>

#include "system/System.hh"

namespace spmcoh
{
namespace
{

/** OpSource over a fixed vector. */
class ListSource : public OpSource
{
  public:
    explicit ListSource(std::vector<MicroOp> ops_)
        : ops(std::move(ops_))
    {}

    bool
    next(MicroOp &op) override
    {
        if (pos >= ops.size())
            return false;
        op = ops[pos++];
        return true;
    }

  private:
    std::vector<MicroOp> ops;
    std::size_t pos = 0;
};

MicroOp
nonMem(std::uint32_t n)
{
    MicroOp op;
    op.kind = OpKind::NonMem;
    op.count = n;
    return op;
}

MicroOp
load(Addr a, bool guarded = false)
{
    MicroOp op;
    op.kind = OpKind::Load;
    op.addr = a;
    op.refId = 1;
    op.guarded = guarded;
    return op;
}

MicroOp
store(Addr a, std::uint64_t v, bool guarded = false)
{
    MicroOp op;
    op.kind = OpKind::Store;
    op.addr = a;
    op.refId = 2;
    op.hasWdata = true;
    op.wdata = v;
    op.guarded = guarded;
    return op;
}

MicroOp
phase(ExecPhase p)
{
    MicroOp op;
    op.kind = OpKind::Phase;
    op.tag = static_cast<std::uint32_t>(p);
    return op;
}

/** Run core 0 of a small system over the given ops. */
Tick
runOps(System &sys, std::vector<MicroOp> ops,
       std::vector<std::unique_ptr<OpSource>> *others = nullptr)
{
    std::vector<std::unique_ptr<OpSource>> srcs;
    srcs.push_back(std::make_unique<ListSource>(std::move(ops)));
    for (CoreId c = 1; c < sys.params().numCores; ++c) {
        if (others && c - 1 < others->size())
            srcs.push_back(std::move((*others)[c - 1]));
        else
            srcs.push_back(std::make_unique<ListSource>(
                std::vector<MicroOp>{}));
    }
    EXPECT_TRUE(sys.run(std::move(srcs)));
    return sys.coreAt(0).finishTick();
}

SystemParams
params4(SystemMode m = SystemMode::HybridProto)
{
    return SystemParams::forMode(m, 4);
}

TEST(Core, NonMemRespectsIssueWidth)
{
    System sys(params4());
    // 600 instructions, 6-wide -> 100 cycles.
    const Tick t = runOps(sys, {nonMem(600)});
    EXPECT_EQ(t, 100u);
    EXPECT_EQ(sys.coreAt(0).statGroup().value("instructions"), 600u);
}

TEST(Core, L1HitsAreThroughputLimited)
{
    System sys(params4());
    // One cold miss, then hammer the line: 3 LSU slots per cycle.
    // Early loads merge into the outstanding MSHR; once the fill
    // lands everything hits.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 301; ++i)
        ops.push_back(load(0x100000));
    const Tick t = runOps(sys, std::move(ops));
    EXPECT_LT(t, 350u);
    EXPECT_GT(sys.l1dAt(0).statGroup().value("hits"), 200u);
    EXPECT_EQ(sys.l1dAt(0).statGroup().value("misses"), 1u);
}

TEST(Core, MissesOverlapWithinWindow)
{
    System sys(params4());
    // 8 independent line misses: with MLP they complete in far less
    // than 8x the single-miss latency.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(load(0x200000 + static_cast<Addr>(i) * 4096));
    const Tick t_mlp = runOps(sys, std::move(ops));

    System sys2(params4());
    const Tick t_one = runOps(sys2, {load(0x200000)});
    EXPECT_LT(t_mlp, t_one * 4);
}

TEST(Core, RobWindowLimitsRunahead)
{
    System sys(params4());
    // A miss followed by far more than ROB-many instructions: the
    // core must stall on the window.
    std::vector<MicroOp> ops;
    ops.push_back(load(0x300000));
    ops.push_back(nonMem(10000));
    runOps(sys, std::move(ops));
    EXPECT_GT(sys.coreAt(0).statGroup().value("robStalls"), 0u);
}

TEST(Core, StoreForwardingHidesPendingStore)
{
    System sys(params4());
    std::vector<MicroOp> ops;
    ops.push_back(store(0x400000, 42));  // miss -> pending store
    ops.push_back(load(0x400000));       // must forward, not stall
    runOps(sys, std::move(ops));
    EXPECT_EQ(sys.coreAt(0).statGroup().value("storeForwards"), 1u);
    // And memory ends up with the stored value.
    EXPECT_EQ(sys.memory().read64(0x400000), 0u);  // still cached
    Tick lat = 0;
    auto v = sys.l1dAt(0).tryLoad(0x400000, 8, sys.events().now(), 1,
                                  lat);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42u);
}

TEST(Core, LoadDoesNotForwardFromACompletedStore)
{
    // The fourth load trains the stride prefetcher; its fill of the
    // store's line lands between the store's probe and its issue, so
    // the store completes inline. The later load must then go to the
    // L1 and hit, not forward from the completed store.
    System sys(params4(SystemMode::CacheOnly));
    const Addr target = 0x400000 + 15 * 64;
    std::vector<MicroOp> ops;
    for (Addr i = 0; i < 4; ++i)
        ops.push_back(load(0x400000 + i * 64));
    ops.push_back(nonMem(300));
    ops.push_back(store(target, 42));
    ops.push_back(nonMem(3000));
    MicroOp late = load(target);
    late.refId = 3;
    ops.push_back(late);
    runOps(sys, std::move(ops));
    EXPECT_EQ(sys.coreAt(0).statGroup().value("storeForwards"), 0u);
    EXPECT_EQ(sys.l1dAt(0).statGroup().value("hits"), 1u);
}

TEST(Core, StoreRolledBackOnFullMshrsNeverForwards)
{
    // Two load misses fill both MSHRs, so the store's first issue is
    // rolled back and retried. Once the retried store completes, only
    // the L1 may serve the later load: no trace of the rolled-back
    // issue may forward to it.
    SystemParams p = params4(SystemMode::CacheOnly);
    p.l1d.mshrs = 2;
    System sys(p);
    const Addr target = 0x500000;
    std::vector<MicroOp> ops;
    ops.push_back(load(0x600000));
    ops.push_back(load(0x700000));
    ops.push_back(store(target, 42));
    ops.push_back(nonMem(3000));
    MicroOp late = load(target);
    late.refId = 3;
    ops.push_back(late);
    runOps(sys, std::move(ops));
    EXPECT_GE(sys.l1dAt(0).statGroup().value("mshrFullRejects"), 1u);
    EXPECT_EQ(sys.coreAt(0).statGroup().value("storeForwards"), 0u);
    EXPECT_EQ(sys.l1dAt(0).statGroup().value("hits"), 1u);
}

TEST(Core, LoadForwardsFromYoungerStoreAfterOlderCompletes)
{
    // Under Dragon, two stores to a line both cores share merge into
    // one MSHR; the first completes with the update round, the second
    // needs a round of its own. The load sits exactly one ROB past
    // the older store, so it issues when that store retires and must
    // still forward from the younger one. The barrier holds the
    // stores until both cores hold the line.
    SystemParams p = params4(SystemMode::CacheOnly);
    p.protocol = "dragon";
    System sys(p);
    const Addr target = 0x400000;
    MicroOp bar;
    bar.kind = OpKind::Barrier;
    bar.tag = 2;                 // parties
    bar.addr = 0 | 1ull << 32;   // member span: cores 0..1
    std::vector<MicroOp> ops;
    ops.push_back(load(target));
    ops.push_back(nonMem(2000));
    ops.push_back(bar);
    ops.push_back(store(target, 1));
    ops.push_back(store(target, 2));
    ops.push_back(nonMem(CoreParams{}.robEntries - 1));
    MicroOp late = load(target);
    late.refId = 3;
    ops.push_back(late);
    std::vector<std::unique_ptr<OpSource>> others;
    others.push_back(std::make_unique<ListSource>(
        std::vector<MicroOp>{load(target), nonMem(2000), bar}));
    runOps(sys, std::move(ops), &others);
    const StatGroup &l1 = sys.l1dAt(0).statGroup();
    EXPECT_EQ(l1.value("updXSent"), 2u);
    EXPECT_EQ(l1.value("upgrades"), 1u);
    EXPECT_GE(sys.coreAt(0).statGroup().value("robStalls"), 1u);
    EXPECT_EQ(sys.coreAt(0).statGroup().value("storeForwards"), 1u);
}

TEST(Core, SpmAccessesBypassCachesAndTlb)
{
    System sys(params4());
    const Addr spm = sys.addressMap().localSpmBase(0);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(store(spm + static_cast<Addr>(i) * 8,
                            std::uint64_t(i)));
    runOps(sys, std::move(ops));
    EXPECT_EQ(sys.coreAt(0).statGroup().value("spmAccesses"), 64u);
    EXPECT_EQ(sys.tlbAt(0).statGroup().value("accesses"), 0u);
    EXPECT_EQ(sys.l1dAt(0).statGroup().value("accesses"), 0u);
    EXPECT_EQ(sys.spmAt(0).read(8, 8), 1u);
}

TEST(Core, BarrierSynchronizesAllCores)
{
    System sys(params4());
    MicroOp bar;
    bar.kind = OpKind::Barrier;
    bar.count = 0;
    bar.tag = 4;                 // parties
    bar.addr = 0 | 3ull << 32;   // member span: cores 0..3
    // Core 0 reaches the barrier immediately; others compute first.
    std::vector<std::unique_ptr<OpSource>> others;
    for (int c = 1; c < 4; ++c)
        others.push_back(std::make_unique<ListSource>(
            std::vector<MicroOp>{nonMem(6000), bar}));
    const Tick t = runOps(sys, {bar}, &others);
    // Core 0 cannot pass the barrier before the slowest core.
    EXPECT_GE(t, 1000u);
}

TEST(Core, BarrierReleaseIsOneEventInArrivalOrder)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    const std::uint64_t before = eq.executed();

    Barrier bar(eq, 3, /*release_latency=*/7);
    std::vector<int> order;
    bar.arrive([&] { order.push_back(0); });
    bar.arrive([&] { order.push_back(1); });
    EXPECT_EQ(bar.pendingArrivals(), 2u);
    EXPECT_EQ(eq.pending(), 0u);
    bar.arrive([&] { order.push_back(2); });
    EXPECT_EQ(bar.pendingArrivals(), 0u);
    EXPECT_EQ(bar.generation(), 1u);
    EXPECT_EQ(eq.pending(), 1u);

    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), before + 1);
    EXPECT_EQ(eq.now(), 107u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

    // An arrival after the release opens the next generation.
    bar.arrive([&] { order.push_back(3); });
    EXPECT_EQ(bar.pendingArrivals(), 1u);
    EXPECT_EQ(bar.generation(), 1u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(Core, DmaSyncBlocksUntilTransferDone)
{
    System sys(params4());
    MicroOp get;
    get.kind = OpKind::DmaGet;
    get.addr = 0x500000;
    get.addr2 = sys.addressMap().localSpmBase(0);
    get.count = 8 * 1024;
    get.tag = 2;
    MicroOp sync;
    sync.kind = OpKind::DmaSync;
    sync.tag = 1u << 2;
    const Tick t = runOps(sys, {get, sync});
    // 128 lines through memory: must take hundreds of cycles.
    EXPECT_GT(t, 200u);
    EXPECT_TRUE(sys.dmacAt(0).quiescent(0xffffffff));
}

TEST(Core, PhaseAccountingCoversExecution)
{
    System sys(params4());
    std::vector<MicroOp> ops;
    ops.push_back(phase(ExecPhase::Control));
    ops.push_back(nonMem(600));
    ops.push_back(phase(ExecPhase::Work));
    ops.push_back(nonMem(1200));
    const Tick t = runOps(sys, std::move(ops));
    const std::uint64_t ctrl =
        sys.coreAt(0).phaseCycles(ExecPhase::Control);
    const std::uint64_t work =
        sys.coreAt(0).phaseCycles(ExecPhase::Work);
    EXPECT_EQ(ctrl, 100u);
    EXPECT_EQ(work, 200u);
    EXPECT_EQ(ctrl + work, t);
}

TEST(Core, GuardedLocalDivertSquashesOnOrderingViolation)
{
    System sys(params4());
    const Addr gm_base = 0x600000;
    MicroOp cfg;
    cfg.kind = OpKind::SetBufCfg;
    cfg.count = 12;
    MicroOp map;
    map.kind = OpKind::MapBuffer;
    map.addr = gm_base;
    map.count = 0;
    map.tag = 0;
    MicroOp sync;
    sync.kind = OpKind::DmaSync;
    sync.tag = 1;
    // Guarded store diverted to the SPM, then an immediate SPM load
    // of the same word: the late-resolved address conflicts and the
    // LSQ re-check must flush the pipeline (Sec. 3.4).
    const Addr spm_alias = sys.addressMap().localSpmBase(0) + 0x18;
    std::vector<MicroOp> ops{cfg, map, sync,
                             store(gm_base + 0x18, 9, true),
                             load(spm_alias)};
    runOps(sys, std::move(ops));
    EXPECT_EQ(sys.coreAt(0).statGroup().value("squashes"), 1u);
    EXPECT_EQ(sys.coreAt(0).statGroup().value("guardedLocalSpm"), 1u);
}

TEST(Core, GuardedStoreWritesSpmAndL1)
{
    System sys(params4());
    const Addr gm_base = 0x700000;
    MicroOp cfg;
    cfg.kind = OpKind::SetBufCfg;
    cfg.count = 12;
    MicroOp map;
    map.kind = OpKind::MapBuffer;
    map.addr = gm_base;
    map.count = 1;  // buffer 1
    map.tag = 0;
    MicroOp sync;
    sync.kind = OpKind::DmaSync;
    sync.tag = 1;
    runOps(sys, {cfg, map, sync, store(gm_base + 0x20, 1234, true)});
    // SPM copy updated (buffer 1).
    EXPECT_EQ(sys.spmAt(0).read(4096 + 0x20, 8), 1234u);
    // L1 write-through happened as well (Sec. 3.2 note on stores).
    Tick lat = 0;
    auto v = sys.l1dAt(0).tryLoad(gm_base + 0x20, 8,
                                  sys.events().now(), 1, lat);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1234u);
}

/**
 * The L1 write of a guarded store the local SPM served trains the
 * stride prefetcher under the store's own reference id, whatever op
 * the core is on when the write runs. Each store of ref A (one line
 * apart) is followed by a run of loads of ref B to one address, whose
 * replays never train B's entry. A write-through filed under B breaks
 * A's stride and mixes B's address into it.
 */
TEST(Core, GuardedWriteThroughTrainsItsOwnRefId)
{
    System sys(params4());
    const Addr gm_base = 0x700000;
    const Addr b_addr = 0x900000;
    MicroOp cfg;
    cfg.kind = OpKind::SetBufCfg;
    cfg.count = 12;
    MicroOp map;
    map.kind = OpKind::MapBuffer;
    map.addr = gm_base;
    map.count = 1;
    map.tag = 0;
    MicroOp sync;
    sync.kind = OpKind::DmaSync;
    sync.tag = 1;
    std::vector<MicroOp> ops{cfg, map, sync};
    const int stores = 8;
    for (int i = 0; i < stores; ++i) {
        MicroOp st = store(gm_base + static_cast<Addr>(i) * lineBytes,
                           static_cast<std::uint64_t>(i), true);
        st.refId = 7;
        ops.push_back(st);
        for (int j = 0; j < 24; ++j) {
            MicroOp ld = load(b_addr);
            ld.refId = 8;
            ops.push_back(ld);
        }
    }
    runOps(sys, std::move(ops));
    EXPECT_EQ(sys.coreAt(0).statGroup().value("guardedLocalSpm"),
              std::uint64_t(stores));
    // A's entry reaches confidence on its fourth write-through; the
    // last five each prefetch 12 and 13 lines ahead (PrefetcherParams
    // defaults): lines 15..20.
    const L1Cache &l1 = sys.l1dAt(0);
    EXPECT_EQ(l1.statGroup().value("prefetchesIssued"), 6u);
    EXPECT_TRUE(l1.peekState(gm_base + (3 + 12) * lineBytes)
                    .has_value());
}

TEST(Core, CacheOnlyModeTreatsGuardedAsPlain)
{
    System sys(params4(SystemMode::CacheOnly));
    runOps(sys, {store(0x800000, 5, true), load(0x800000, true)});
    EXPECT_EQ(sys.coreAt(0).statGroup().value("guardedAccesses"), 0u);
    EXPECT_EQ(sys.mesh().traffic().classPackets(TrafficClass::CohProt),
              0u);
}

TEST(Core, KernelCodeWalkGeneratesIfetchTraffic)
{
    System sys(params4());
    MicroOp code;
    code.kind = OpKind::KernelCode;
    code.addr = AddressMap::codeBase;
    code.count = 4096;
    runOps(sys, {code, nonMem(5000)});
    sys.events().run();
    EXPECT_GT(sys.mesh().traffic().classPackets(TrafficClass::Ifetch),
              0u);
    EXPECT_GT(sys.l1iAt(0).statGroup().value("misses"), 0u);
}

/** A Barrier op for @p parties arrivals over cores 0..3. */
MicroOp
barrierOf(std::uint32_t parties)
{
    MicroOp op;
    op.kind = OpKind::Barrier;
    op.count = 1;
    op.tag = parties;
    op.addr = Addr{3} << 32;
    return op;
}

/** Reschedules itself every 4096 ticks, forever. */
struct Ticker
{
    EventQueue *eq;
    void operator()() const { eq->scheduleIn(4096, Ticker{eq}); }
};

TEST(Core, LivelockFailsTheRunWithinOneWindow)
{
    // Five parties on four cores: the barrier never releases, while
    // the ticker keeps the queue from draining.
    System sys(params4());
    std::vector<std::unique_ptr<OpSource>> srcs;
    for (CoreId c = 0; c < 4; ++c)
        srcs.push_back(std::make_unique<ListSource>(
            std::vector<MicroOp>{nonMem(60), barrierOf(5)}));
    sys.events().schedule(0, Ticker{&sys.events()});
    EXPECT_FALSE(sys.run(std::move(srcs)));
    // The cores park by tick 10, so the second window is the first
    // without an instruction.
    EXPECT_EQ(sys.events().now(), 2 * System::progressWindow);
    const std::string &why = sys.failure();
    EXPECT_NE(why.find("no core executed an instruction"),
              std::string::npos) << why;
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_NE(why.find("core " + std::to_string(c) +
                           ": at barrier 1"),
                  std::string::npos) << why;
}

TEST(Core, DeadlockFailsWhenTheQueueDrains)
{
    // Nothing else is scheduled: the queue drains with every core
    // parked at the barrier.
    System sys(params4());
    std::vector<std::unique_ptr<OpSource>> srcs;
    for (CoreId c = 0; c < 4; ++c)
        srcs.push_back(std::make_unique<ListSource>(
            std::vector<MicroOp>{barrierOf(5)}));
    EXPECT_FALSE(sys.run(std::move(srcs)));
    EXPECT_LT(sys.events().now(), 100u);
    EXPECT_NE(sys.failure().find("drained"), std::string::npos)
        << sys.failure();
    EXPECT_NE(sys.failure().find("core 3: at barrier 1"),
              std::string::npos) << sys.failure();
}

TEST(Core, LivelockNamesTheLineOfTheOldestInFlightOp)
{
    // Core 0's load reaches the directory, which never answers: the
    // handler drops every request.
    System sys(params4());
    sys.memNet().setHandler(Endpoint::Dir, sys.memNet().homeSlice(0x2040),
                            [](const Message &) {});
    std::vector<std::unique_ptr<OpSource>> srcs;
    srcs.push_back(std::make_unique<ListSource>(
        std::vector<MicroOp>{load(0x2048), barrierOf(4)}));
    for (CoreId c = 1; c < 4; ++c)
        srcs.push_back(std::make_unique<ListSource>(
            std::vector<MicroOp>{barrierOf(4)}));
    sys.events().schedule(0, Ticker{&sys.events()});
    EXPECT_FALSE(sys.run(std::move(srcs)));
    EXPECT_NE(sys.failure().find("core 0: load of line 0x2040 in flight"),
              std::string::npos) << sys.failure();
}

TEST(Core, ComputingAheadIsProgress)
{
    // Core 0 computes for longer than a window in one op while the
    // others wait at the barrier: its local clock runs ahead of the
    // queue, which is progress, not a livelock.
    System sys(params4());
    const auto n = static_cast<std::uint32_t>(
        6 * (System::progressWindow + 1000));
    std::vector<std::unique_ptr<OpSource>> srcs;
    srcs.push_back(std::make_unique<ListSource>(
        std::vector<MicroOp>{nonMem(n), barrierOf(4)}));
    for (CoreId c = 1; c < 4; ++c)
        srcs.push_back(std::make_unique<ListSource>(
            std::vector<MicroOp>{barrierOf(4)}));
    EXPECT_TRUE(sys.run(std::move(srcs))) << sys.failure();
    EXPECT_GT(sys.coreAt(1).finishTick(), System::progressWindow);
}

} // namespace
} // namespace spmcoh
