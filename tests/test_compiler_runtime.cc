/**
 * @file
 * Tests for the compiler pass (classification, alias analysis,
 * tiling) and the runtime op-stream generators (Fig. 3 structure,
 * layout alignment, cross-mode determinism).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/ProgramSource.hh"
#include "workloads/NasBenchmarks.hh"

namespace spmcoh
{
namespace
{

constexpr std::uint32_t spmBytes = 32 * 1024;

ProgramDecl
tinyProgram(std::uint32_t cores)
{
    ProgramDecl p;
    p.name = "tiny";
    p.seed = 5;
    ArrayDecl a;
    a.id = 0;
    a.name = "a";
    a.bytes = cores * 8 * 1024;
    a.threadPrivateSection = true;
    p.arrays.push_back(a);
    ArrayDecl barr = a;
    barr.id = 1;
    barr.name = "b";
    p.arrays.push_back(barr);
    ArrayDecl c;
    c.id = 2;
    c.name = "c";
    c.bytes = 64 * 1024;
    c.threadPrivateSection = false;
    p.arrays.push_back(c);
    ArrayDecl ptr = c;
    ptr.id = 3;
    ptr.name = "ptrdata";
    p.arrays.push_back(ptr);

    KernelDecl k;
    k.id = 0;
    k.name = "loop";
    k.iterations = cores * 1024;
    k.instrsPerIter = 10;
    k.codeBytes = 512;
    MemRefDecl ra;           // strided load of a -> SPM
    ra.id = 0;
    ra.arrayId = 0;
    ra.pattern = AccessPattern::Strided;
    k.refs.push_back(ra);
    MemRefDecl rb = ra;      // strided store of b -> SPM
    rb.id = 1;
    rb.arrayId = 1;
    rb.isWrite = true;
    k.refs.push_back(rb);
    MemRefDecl rc;           // indirect, analyzable -> GM
    rc.id = 2;
    rc.arrayId = 2;
    rc.pattern = AccessPattern::Indirect;
    k.refs.push_back(rc);
    MemRefDecl rp;           // pointer-based -> guarded
    rp.id = 3;
    rp.arrayId = 3;
    rp.pattern = AccessPattern::PointerChase;
    rp.pointerBased = true;
    rp.isWrite = true;
    k.refs.push_back(rp);
    MemRefDecl rs;           // stack
    rs.id = 4;
    rs.arrayId = 2;
    rs.pattern = AccessPattern::Stack;
    k.refs.push_back(rs);
    p.kernels.push_back(k);
    return p;
}

TEST(Compiler, ClassifiesPerSection24)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ASSERT_EQ(plan.kernels.size(), 1u);
    const KernelPlan &k = plan.kernels[0];
    ASSERT_EQ(k.refs.size(), 5u);
    EXPECT_EQ(k.refs[0].cls, RefClass::Spm);
    EXPECT_EQ(k.refs[1].cls, RefClass::Spm);
    EXPECT_EQ(k.refs[2].cls, RefClass::Gm);
    EXPECT_EQ(k.refs[2].alias, AliasVerdict::NoAlias);
    EXPECT_EQ(k.refs[3].cls, RefClass::Guarded);
    EXPECT_EQ(k.refs[3].alias, AliasVerdict::MayAlias);
    EXPECT_EQ(k.refs[4].cls, RefClass::Stack);
    EXPECT_EQ(k.numSpmRefs, 2u);
    EXPECT_EQ(k.numGuardedRefs, 1u);
    // Distinct buffers per SPM ref.
    EXPECT_NE(k.refs[0].bufferIdx, k.refs[1].bufferIdx);
}

TEST(Compiler, PointerToSpmArrayIsMustAlias)
{
    const std::uint32_t cores = 4;
    ProgramDecl p = tinyProgram(cores);
    // A pointer-based reference aliased with SPM array 0.
    MemRefDecl rp;
    rp.id = 9;
    rp.arrayId = 0;
    rp.pattern = AccessPattern::PointerChase;
    rp.pointerBased = true;
    p.kernels[0].refs.push_back(rp);
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(p);
    EXPECT_EQ(plan.kernels[0].refs.back().alias,
              AliasVerdict::MustAlias);
    EXPECT_EQ(plan.kernels[0].refs.back().cls, RefClass::Guarded);
}

TEST(Compiler, BufferSizeSplitsSpmAcrossRefs)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    // 2 SPM refs over 32KB -> 16KB buffers, but the 8KB per-thread
    // section caps it at 8KB.
    EXPECT_EQ(plan.kernels[0].bufLog2, 13u);
    EXPECT_EQ(plan.kernels[0].chunkIters, 1024u);
}

TEST(Layout, AlignsSpmArraysToBuffers)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    const std::uint64_t buf = 1ull << plan.kernels[0].bufLog2;
    for (std::uint32_t id : {0u, 1u}) {
        EXPECT_EQ(l.baseOf(id) % buf, 0u);
        const std::uint64_t section = l.bytesOf(id) / cores;
        EXPECT_EQ(section % buf, 0u);
    }
    // Arrays do not overlap.
    EXPECT_GE(l.baseOf(1), l.baseOf(0) + l.bytesOf(0));
}

TEST(Layout, UnknownArrayIdsPanic)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    // Leave a gap in the dense ids: id 2 is never laid out.
    auto &arrays = plan.decl.arrays;
    arrays.erase(std::remove_if(arrays.begin(), arrays.end(),
                                [](const ArrayDecl &a) { return a.id == 2; }),
                 arrays.end());
    ProgramLayout l = layoutProgram(plan, cores);
    EXPECT_NO_THROW(l.baseOf(3));
    EXPECT_THROW(l.baseOf(2), PanicError);
    EXPECT_THROW(l.bytesOf(2), PanicError);
    EXPECT_THROW(l.baseOf(4), PanicError);
    EXPECT_THROW(l.bytesOf(1000), PanicError);
}

/** Collect the whole op stream of one core. */
std::vector<MicroOp>
collect(const ProgramPlan &plan, const ProgramLayout &l, CoreId c,
        std::uint32_t cores, bool hybrid)
{
    const PhaseSchedule sched(plan.decl, cores);
    ProgramSource src(plan, l, sched, c, cores, hybrid, spmBytes);
    std::vector<MicroOp> ops;
    MicroOp op;
    while (src.next(op))
        ops.push_back(op);
    return ops;
}

TEST(KernelSource, HybridStreamHasFig3Structure)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    auto ops = collect(plan, l, 0, cores, true);

    // Must contain, in order: SetBufCfg before any MapBuffer; every
    // DmaGet preceded by its MapBuffer; a DmaSync between the last
    // DmaGet of a chunk and the first work access.
    bool saw_cfg = false;
    bool saw_map = false;
    std::uint32_t maps = 0, gets = 0, puts = 0, syncs = 0;
    for (const MicroOp &op : ops) {
        switch (op.kind) {
          case OpKind::SetBufCfg:
            saw_cfg = true;
            EXPECT_FALSE(saw_map);
            break;
          case OpKind::MapBuffer:
            EXPECT_TRUE(saw_cfg);
            saw_map = true;
            ++maps;
            break;
          case OpKind::DmaGet:  ++gets; break;
          case OpKind::DmaPut:  ++puts; break;
          case OpKind::DmaSync: ++syncs; break;
          default: break;
        }
    }
    // 2 SPM refs, 8KB section, 8KB buffers -> 1 chunk per ref.
    EXPECT_EQ(maps, 2u);
    EXPECT_EQ(gets, 2u);
    EXPECT_EQ(puts, 1u);   // only the written ref writes back
    EXPECT_EQ(syncs, 2u);  // chunk sync + epilogue sync
}

TEST(KernelSource, MapBaseIsBufferAligned)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    const std::uint64_t buf = 1ull << plan.kernels[0].bufLog2;
    for (CoreId c = 0; c < cores; ++c) {
        for (const MicroOp &op : collect(plan, l, c, cores, true)) {
            if (op.kind == OpKind::MapBuffer) {
                EXPECT_EQ(op.addr % buf, 0u);
            }
            if (op.kind == OpKind::DmaGet ||
                op.kind == OpKind::DmaPut) {
                EXPECT_EQ(op.addr % lineBytes, 0u);
                EXPECT_EQ(op.count % lineBytes, 0u);
            }
        }
    }
}

TEST(KernelSource, WorkAccessesStaySectionLocal)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    // Cache mode: strided refs of core c stay inside section c.
    for (CoreId c = 0; c < cores; ++c) {
        const std::uint64_t section = l.bytesOf(0) / cores;
        const Addr lo = l.baseOf(0) + c * section;
        const Addr hi = lo + section;
        for (const MicroOp &op : collect(plan, l, c, cores, false)) {
            if (op.kind == OpKind::Load && op.refId == 0) {
                EXPECT_GE(op.addr, lo);
                EXPECT_LT(op.addr, hi);
            }
        }
    }
}

TEST(KernelSource, RandomSequencesMatchAcrossModes)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    auto addrs_of = [&](bool hybrid) {
        std::vector<Addr> v;
        for (const MicroOp &op : collect(plan, l, 1, cores, hybrid)) {
            const bool random_ref =
                (op.kind == OpKind::Load || op.kind == OpKind::Store) &&
                (op.refId == 2 || op.refId == 3);
            if (random_ref)
                v.push_back(op.addr);
        }
        return v;
    };
    EXPECT_EQ(addrs_of(true), addrs_of(false));
}

TEST(KernelSource, StoreValuesAreModeIndependent)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    auto values_of = [&](bool hybrid) {
        std::vector<std::uint64_t> v;
        for (const MicroOp &op : collect(plan, l, 2, cores, hybrid))
            if (op.kind == OpKind::Store && op.hasWdata)
                v.push_back(op.wdata);
        return v;
    };
    EXPECT_EQ(values_of(true), values_of(false));
}

TEST(ProgramSource, BarriersSeparateKernelsUniformly)
{
    const std::uint32_t cores = 4;
    ProgramDecl p = tinyProgram(cores);
    p.timesteps = 3;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(p);
    ProgramLayout l = layoutProgram(plan, cores);
    auto barrier_ids = [&](CoreId c) {
        std::vector<std::uint32_t> ids;
        for (const MicroOp &op : collect(plan, l, c, cores, true))
            if (op.kind == OpKind::Barrier)
                ids.push_back(op.count);
        return ids;
    };
    const auto ids0 = barrier_ids(0);
    EXPECT_EQ(ids0.size(), 3u);  // one per kernel invocation
    for (CoreId c = 1; c < cores; ++c)
        EXPECT_EQ(barrier_ids(c), ids0);
}

TEST(ProgramSource, GuardedOnlyInHybridMode)
{
    const std::uint32_t cores = 4;
    Compiler comp(spmBytes, cores);
    ProgramPlan plan = comp.compile(tinyProgram(cores));
    ProgramLayout l = layoutProgram(plan, cores);
    std::uint32_t hybrid_guarded = 0, flat_guarded = 0;
    for (const MicroOp &op : collect(plan, l, 0, cores, true))
        hybrid_guarded += op.guarded;
    for (const MicroOp &op : collect(plan, l, 0, cores, false))
        flat_guarded += op.guarded;
    EXPECT_GT(hybrid_guarded, 0u);
    EXPECT_EQ(flat_guarded, 0u);
}

} // namespace
} // namespace spmcoh
