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

} // namespace
} // namespace spmcoh
