/**
 * @file
 * Kernel op-stream generator implementation.
 */

#include "runtime/KernelSource.hh"

namespace spmcoh
{

namespace
{

std::uint64_t
mixSeed(std::uint64_t seed, std::uint32_t kernel, CoreId core,
        std::uint32_t invocation)
{
    std::uint64_t x = seed;
    x = x * 0x100000001b3ULL + kernel;
    x = x * 0x100000001b3ULL + core;
    x = x * 0x100000001b3ULL + invocation;
    return x;
}

} // namespace

KernelSource::KernelSource(const ProgramPlan &prog_,
                           std::uint32_t kernel_idx,
                           const ProgramLayout &layout_, CoreId core_,
                           std::uint32_t num_cores, bool hybrid_,
                           std::uint32_t spm_bytes,
                           std::uint32_t invocation,
                           const RuntimeCosts &costs_)
    : prog(prog_), plan(prog_.kernels.at(kernel_idx)),
      layout(layout_), core(core_), numCores(num_cores),
      groupSize(plan.decl.group.size(num_cores)),
      rank(plan.decl.group.rankOf(core_)),
      hybrid(hybrid_), spmBytes(spm_bytes), costs(costs_),
      rng(mixSeed(prog_.decl.seed, plan.decl.id, core_, invocation))
{
    if (!plan.decl.group.contains(core_, num_cores))
        fatal("KernelSource: core " + std::to_string(core_) +
              " is not in kernel '" + plan.decl.name + "' group");
    perThreadIters = plan.decl.iterations / groupSize;
    bufBytes = std::uint64_t(1) << plan.bufLog2;
    spmLocalBase = AddressMap::defaultSpmBase +
        static_cast<Addr>(core) * spmBytes;
    if (hybrid && plan.numSpmRefs > 0) {
        if (plan.numSpmRefs > 32)
            fatal("KernelSource: more SPM refs than SPMDir entries");
        chunkIters = plan.chunkIters;
        numChunks = divCeil(perThreadIters, chunkIters);
        if (numChunks == 0)
            numChunks = 1;
    } else {
        chunkIters = perThreadIters;
        numChunks = 1;
    }
}

bool
KernelSource::next(MicroOp &op)
{
    while (q.empty()) {
        if (st == St::Done)
            return false;
        refill();
    }
    op = q.front();
    q.pop_front();
    return true;
}

void
KernelSource::refill()
{
    switch (st) {
      case St::Prologue:      emitPrologue(); break;
      case St::Control:       emitControlStep(); break;
      case St::Sync:          emitSyncPhase(); break;
      case St::Work:          emitIteration(); break;
      case St::EpiloguePut:   emitEpiloguePut(); break;
      case St::EpilogueSync:  emitEpilogueSync(); break;
      case St::Done:          break;
    }
}

std::uint32_t
KernelSource::refIdFor(const ClassifiedRef &r) const
{
    return plan.decl.id * 64 + r.decl.id;
}

std::uint32_t
KernelSource::tagMask() const
{
    std::uint32_t m = 0;
    for (const ClassifiedRef &r : plan.refs)
        if (r.cls == RefClass::Spm)
            m |= 1u << (r.bufferIdx % Dmac::numTags);
    return m;
}

Addr
KernelSource::chunkBase(const ClassifiedRef &r,
                        std::uint64_t chunk_idx) const
{
    // Arrays are laid out in numCores sections; a grouped kernel's
    // members cover sections [0, groupSize) by rank, so a consumer
    // group touches exactly the sections its producer group wrote.
    const std::uint64_t section =
        layout.bytesOf(r.decl.arrayId) / numCores;
    return layout.baseOf(r.decl.arrayId) +
        static_cast<Addr>(rank) * section + chunk_idx * bufBytes;
}

Addr
KernelSource::spmBufAddr(const ClassifiedRef &r) const
{
    return spmLocalBase + static_cast<Addr>(r.bufferIdx) * bufBytes;
}

Addr
KernelSource::randomTarget(const ClassifiedRef &r)
{
    const Addr base = layout.baseOf(r.decl.arrayId);
    std::uint64_t bytes = 0;
    for (const ArrayDecl &a : prog.decl.arrays)
        if (a.id == r.decl.arrayId)
            bytes = a.bytes & ~std::uint64_t(7);
    if (bytes < 8)
        bytes = 8;
    // Temporal locality model: each thread's random accesses are
    // biased toward a thread-local hot window (real irregular codes
    // cluster: IS key populations, CG row neighborhoods), with a
    // cold tail over the whole shared array. A shared hot set would
    // instead model an all-cores write ping-pong, which none of the
    // evaluated benchmarks exhibits. Windows stay 8-byte aligned for
    // any group size, so no hot access straddles a line.
    const std::uint64_t window = (bytes / groupSize >= 8
        ? bytes / groupSize : bytes) & ~7ull;
    std::uint64_t hot = r.decl.hotBytes & ~7ull;
    if (hot > window)
        hot = window;
    std::uint64_t off;
    if (hot >= 8 && rng.uniform() < r.decl.hotFraction) {
        const std::uint64_t w_start =
            (static_cast<std::uint64_t>(rank) * window) % bytes;
        off = (w_start + rng.below(hot / 8) * 8) % bytes;
    } else {
        off = rng.below(bytes / 8) * 8;
    }
    return base + off;
}

void
KernelSource::emitPrologue()
{
    MicroOp code;
    code.kind = OpKind::KernelCode;
    code.addr = AddressMap::codeBase +
        static_cast<Addr>(plan.decl.id) * 0x10000;
    code.count = plan.decl.codeBytes +
        (hybrid ? costs.runtimeCodeBytes : 0);
    q.push_back(code);

    if (hybrid && plan.numSpmRefs > 0) {
        MicroOp cfg;
        cfg.kind = OpKind::SetBufCfg;
        cfg.count = plan.bufLog2;
        q.push_back(cfg);
    }
    MicroOp setup;
    setup.kind = OpKind::NonMem;
    setup.count = costs.loopSetup;
    q.push_back(setup);

    if (perThreadIters == 0) {
        st = St::Done;
        return;
    }
    if (hybrid && plan.numSpmRefs > 0) {
        MicroOp ph;
        ph.kind = OpKind::Phase;
        ph.tag = static_cast<std::uint32_t>(ExecPhase::Control);
        q.push_back(ph);
        MicroOp c;
        c.kind = OpKind::NonMem;
        c.count = costs.controlPerChunk;
        q.push_back(c);
        st = St::Control;
        ctrlRef = 0;
    } else {
        MicroOp ph;
        ph.kind = OpKind::Phase;
        ph.tag = static_cast<std::uint32_t>(ExecPhase::Work);
        q.push_back(ph);
        st = St::Work;
        iter = 0;
        chunk = 0;
    }
}

void
KernelSource::emitControlStep()
{
    // One MAP statement (Fig. 3) per SPM reference per chunk.
    std::uint32_t seen = 0;
    for (const ClassifiedRef &r : plan.refs) {
        if (r.cls != RefClass::Spm)
            continue;
        if (seen++ != ctrlRef)
            continue;

        MicroOp call;
        call.kind = OpKind::NonMem;
        call.count = costs.mapCall;
        q.push_back(call);

        const std::uint32_t tag = r.bufferIdx % Dmac::numTags;
        if (r.decl.isWrite && chunk > 0) {
            MicroOp put;
            put.kind = OpKind::DmaPut;
            put.addr = chunkBase(r, chunk - 1);
            put.addr2 = spmBufAddr(r);
            put.count = static_cast<std::uint32_t>(bufBytes);
            put.tag = tag;
            q.push_back(put);
        }
        MicroOp map;
        map.kind = OpKind::MapBuffer;
        map.addr = chunkBase(r, chunk);
        map.count = r.bufferIdx;
        map.tag = tag;
        q.push_back(map);

        MicroOp get;
        get.kind = OpKind::DmaGet;
        get.addr = chunkBase(r, chunk);
        get.addr2 = spmBufAddr(r);
        get.count = static_cast<std::uint32_t>(bufBytes);
        get.tag = tag;
        q.push_back(get);

        ++ctrlRef;
        if (ctrlRef == plan.numSpmRefs) {
            ctrlRef = 0;
            st = St::Sync;
        }
        return;
    }
    // No SPM refs at all (defensive): jump to work.
    st = St::Work;
}

void
KernelSource::emitSyncPhase()
{
    MicroOp ph;
    ph.kind = OpKind::Phase;
    ph.tag = static_cast<std::uint32_t>(ExecPhase::Sync);
    q.push_back(ph);
    MicroOp call;
    call.kind = OpKind::NonMem;
    call.count = costs.syncCall;
    q.push_back(call);
    MicroOp sync;
    sync.kind = OpKind::DmaSync;
    sync.tag = tagMask();
    q.push_back(sync);
    MicroOp ph2;
    ph2.kind = OpKind::Phase;
    ph2.tag = static_cast<std::uint32_t>(ExecPhase::Work);
    q.push_back(ph2);
    st = St::Work;
    iter = 0;
}

void
KernelSource::emitIteration()
{
    const std::uint64_t global_iter = chunk * chunkIters + iter;
    if (global_iter >= perThreadIters || iter >= chunkIters) {
        // Chunk (or kernel) finished.
        if (global_iter >= perThreadIters) {
            if (hybrid && plan.numSpmRefs > 0) {
                st = St::EpiloguePut;
                ctrlRef = 0;
                MicroOp ph;
                ph.kind = OpKind::Phase;
                ph.tag = static_cast<std::uint32_t>(ExecPhase::Control);
                q.push_back(ph);
            } else {
                st = St::Done;
            }
            return;
        }
        ++chunk;
        iter = 0;
        MicroOp ph;
        ph.kind = OpKind::Phase;
        ph.tag = static_cast<std::uint32_t>(ExecPhase::Control);
        q.push_back(ph);
        MicroOp c;
        c.kind = OpKind::NonMem;
        c.count = costs.controlPerChunk;
        q.push_back(c);
        st = St::Control;
        return;
    }

    MicroOp body;
    body.kind = OpKind::NonMem;
    body.count = plan.decl.instrsPerIter;
    q.push_back(body);

    for (const ClassifiedRef &r : plan.refs) {
        for (std::uint32_t a = 0; a < r.decl.accessesPerIter; ++a) {
            MicroOp m;
            m.kind = r.decl.isWrite ? OpKind::Store : OpKind::Load;
            m.size = 8;
            m.refId = refIdFor(r);
            switch (r.cls) {
              case RefClass::Spm: {
                const std::uint64_t elem =
                    static_cast<std::uint64_t>(rank) * perThreadIters +
                    global_iter;
                if (hybrid) {
                    m.addr = spmBufAddr(r) + iter * 8;
                } else {
                    const std::uint64_t section =
                        layout.bytesOf(r.decl.arrayId) / numCores;
                    m.addr = layout.baseOf(r.decl.arrayId) +
                        static_cast<Addr>(rank) * section +
                        global_iter * 8;
                }
                if (r.decl.isWrite) {
                    m.hasWdata = true;
                    m.wdata = workloadValue(r.decl.arrayId, elem);
                }
                break;
              }
              case RefClass::Gm:
              case RefClass::Guarded: {
                m.addr = randomTarget(r);
                m.guarded = hybrid && r.cls == RefClass::Guarded;
                if (r.decl.isWrite) {
                    m.hasWdata = true;
                    m.wdata = workloadValue(
                        r.decl.arrayId,
                        (m.addr - layout.baseOf(r.decl.arrayId)) / 8);
                }
                break;
              }
              case RefClass::Stack: {
                m.addr = AddressMap::stackFor(core) +
                    (stackSlot++ % 64) * 8;
                if (r.decl.isWrite) {
                    m.hasWdata = true;
                    m.wdata = stackSlot;
                }
                break;
              }
            }
            q.push_back(m);
        }
    }
    ++iter;
}

void
KernelSource::emitEpiloguePut()
{
    std::uint32_t seen = 0;
    for (const ClassifiedRef &r : plan.refs) {
        if (r.cls != RefClass::Spm)
            continue;
        if (seen++ != ctrlRef)
            continue;
        if (r.decl.isWrite) {
            MicroOp put;
            put.kind = OpKind::DmaPut;
            put.addr = chunkBase(r, numChunks - 1);
            put.addr2 = spmBufAddr(r);
            put.count = static_cast<std::uint32_t>(bufBytes);
            put.tag = r.bufferIdx % Dmac::numTags;
            q.push_back(put);
        } else {
            MicroOp n;
            n.kind = OpKind::NonMem;
            n.count = 2;
            q.push_back(n);
        }
        ++ctrlRef;
        if (ctrlRef == plan.numSpmRefs)
            st = St::EpilogueSync;
        return;
    }
    st = St::EpilogueSync;
}

void
KernelSource::emitEpilogueSync()
{
    MicroOp ph;
    ph.kind = OpKind::Phase;
    ph.tag = static_cast<std::uint32_t>(ExecPhase::Sync);
    q.push_back(ph);
    MicroOp sync;
    sync.kind = OpKind::DmaSync;
    sync.tag = tagMask();
    q.push_back(sync);
    st = St::Done;
}

} // namespace spmcoh
