#include "core/fused_sweep.h"

#include <algorithm>
#include <vector>

#include "comm/exchange.h"
#include "core/slab_sweep.h"
#include "util/thread_pool.h"

namespace tpf::core {

namespace {

/// Mu sweep of the slabs [lo, hi) of \p slabs, fanned out over \p pool. The
/// slabs are independent (each re-seeds its own staggered carries), so the
/// execution order is free — same argument as parallelForSlabs.
void runMuSlabs(SimBlock& b, const StepContext& ctx, MuKernelKind muKind,
                util::ThreadPool* pool, const std::vector<CellInterval>& slabs,
                int lo, int hi) {
    const int n = hi - lo;
    if (n <= 0) return;
    if (!pool || pool->threads() == 1 || n == 1) {
        for (int j = lo; j < hi; ++j)
            runMuKernel(muKind, b, ctx.forSlab(slabs[static_cast<std::size_t>(j)]));
        return;
    }
    pool->parallelFor(n, [&](int i) {
        runMuKernel(muKind, b,
                    ctx.forSlab(slabs[static_cast<std::size_t>(lo + i)]));
    });
}

} // namespace

void fillLateralGhosts(Field<double>& f, int z0, int z1) {
    const Int3 lateral[4] = {{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}};
    for (const Int3& o : lateral) {
        CellInterval from = sendRegion(f, o);
        CellInterval to = ghostRegion(f, {-o.x, -o.y, -o.z});
        from.zMin = z0;
        from.zMax = z1;
        to.zMin = z0;
        to.zMax = z1;
        const int dx = to.xMin - from.xMin;
        const int dy = to.yMin - from.yMin;
        forEachCell(from, [&](int x, int y, int z) {
            for (int c = 0; c < f.nf(); ++c)
                f(x + dx, y + dy, z, c) = f(x, y, z, c);
        });
    }
}

void fusedSweepInterior(SimBlock& b, const StepContext& ctx,
                        PhiKernelKind phiKind, MuKernelKind muKind,
                        util::ThreadPool* pool,
                        const std::function<void()>& beforeFirstMu) {
    const CellInterval whole = b.phiSrc.interior();
    const std::vector<CellInterval> slabs = slabPartition(whole);
    const int nSlabs = static_cast<int>(slabs.size());
    const int chunk = std::max(1, pool ? pool->threads() : 1);

    bool muStarted = false;
    int muNext = 1; // slab 0 reads phiDst z ghosts -> fusedSweepBoundary
    for (int c0 = 0; c0 < nSlabs; c0 += chunk) {
        const int c1 = std::min(nSlabs, c0 + chunk);
        CellInterval ci = whole;
        ci.zMin = slabs[static_cast<std::size_t>(c0)].zMin;
        ci.zMax = slabs[static_cast<std::size_t>(c1 - 1)].zMax;
        // slabPartition(ci) == slabs[c0..c1): every global slab is exactly
        // kSlabHeight planes except the last, and ci starts on a slab bottom
        // — so the chunked phi sweep reproduces the global partition and the
        // slab-determinism contract carries over unchanged.
        parallelForSlabs(pool, ci, [&](const CellInterval& s) {
            runPhiKernel(phiKind, b, ctx.forSlab(s));
        });
        fillLateralGhosts(b.phiDst, ci.zMin, ci.zMax);

        // Interior slabs whose one-slab fresh-phi halo is now complete:
        // slab j needs phi of slab j+1, i.e. j + 1 < c1.
        const int muEnd = std::min(c1 - 1, nSlabs - 1);
        if (muNext < muEnd) {
            if (!muStarted) {
                muStarted = true;
                if (beforeFirstMu) beforeFirstMu();
            }
            runMuSlabs(b, ctx, muKind, pool, slabs, muNext, muEnd);
            muNext = muEnd;
        }
    }
}

void fusedSweepBoundary(SimBlock& b, const StepContext& ctx,
                        MuKernelKind muKind, util::ThreadPool* pool) {
    const std::vector<CellInterval> slabs = slabPartition(b.phiSrc.interior());
    const int nSlabs = static_cast<int>(slabs.size());
    if (nSlabs == 0) return;
    if (nSlabs == 1) {
        runMuKernel(muKind, b, ctx.forSlab(slabs[0]));
        return;
    }
    if (pool && pool->threads() > 1) {
        const int idx[2] = {0, nSlabs - 1};
        pool->parallelFor(2, [&](int i) {
            runMuKernel(muKind, b,
                        ctx.forSlab(slabs[static_cast<std::size_t>(idx[i])]));
        });
        return;
    }
    runMuKernel(muKind, b, ctx.forSlab(slabs[0]));
    runMuKernel(muKind, b, ctx.forSlab(slabs[static_cast<std::size_t>(nSlabs - 1)]));
}

} // namespace tpf::core
