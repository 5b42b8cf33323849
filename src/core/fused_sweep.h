#pragma once
/// \file fused_sweep.h
/// Temporally fused phi/mu sweep (SweepSchedule::Fused): instead of writing
/// the entire phiDst field and only then starting the mu sweep, the step is
/// pipelined over the z-slab partition of core/slab_sweep.h — the mu sweep of
/// slab j runs as soon as the phi sweep has produced the one-slab fresh-phi
/// halo it reads (slabs j-1, j, j+1 plus the lateral periodic ghosts of
/// slab j). phiDst of slab j is then still cache-resident when the mu kernel
/// consumes it, which is the entire point: the split schedule streams phiDst
/// through memory twice per step, the fused one once.
///
/// Data-flow inventory behind the halo (verified against the reference
/// kernels; the kernel-equivalence suite enforces it for every variant):
///  - the mu face fluxes read phiDst only at the two face-adjacent cells of
///    each of the six faces, and the cell finish reads the center (the
///    dphi/dt anti-trapping term) — never a diagonal neighbor;
///  - the phi-gradient terms read phiSrc (D3C19), whose ghosts are last
///    step's and stay valid throughout;
///  - mu reads muSrc (D3C7), valid after the mu exchange of the previous
///    step (or the overlapMu wait hook, see below).
/// Hence the z ghost planes of phiDst are read only by the bottom and top
/// slab, and the xy corner/edge ghosts are never read at all.
///
/// Bitwise equivalence with the split schedule (docs/KERNELS.md): every slab
/// is computed by the identical kernel invocation on identical inputs. The
/// lateral ghost fill performs the same interior-to-ghost copy the exchange's
/// intra-rank path would, and the bottom/top slabs — whose phiDst z ghosts
/// belong to the inter-block exchange and the z boundary conditions — are
/// deferred to fusedSweepBoundary() after that exchange ran. Slab order and
/// thread count never enter any operand, so fused == split bit for bit.
///
/// Precondition (asserted by the Solver): a single block in x and y, so the
/// lateral periodic ghosts are a self-wrap.

#include <functional>

#include "core/kernels.h"
#include "core/sim_block.h"

namespace tpf::util {
class ThreadPool;
}

namespace tpf::core {

/// Phi sweep of the whole block interleaved with the mu sweep of every
/// *interior* slab. Phi proceeds in chunks of pool-width slabs (bottom-up);
/// after each chunk the lateral ghosts of the freshly written planes are
/// wrapped and the mu slabs whose halo completed are swept. \p beforeFirstMu
/// runs exactly once, immediately before the first mu slab of this call —
/// the Solver uses it for the overlapMu receive-wait; pass an empty function
/// when muSrc ghosts are already valid. With fewer than three slabs there is
/// no interior slab and the call degenerates to a plain phi sweep.
void fusedSweepInterior(SimBlock& b, const StepContext& ctx,
                        PhiKernelKind phiKind, MuKernelKind muKind,
                        util::ThreadPool* pool,
                        const std::function<void()>& beforeFirstMu);

/// Mu sweep of the bottom and top slab (deduplicated when only one slab
/// exists). Call after the phiDst ghost exchange and boundary application —
/// these slabs read the phiDst z ghost planes.
void fusedSweepBoundary(SimBlock& b, const StepContext& ctx,
                        MuKernelKind muKind, util::ThreadPool* pool);

/// Periodic lateral (x/y face) ghost fill of \p f from its own interior,
/// restricted to the planes [z0, z1]. The per-cell copy matches the ghost
/// exchange's intra-rank path, so the exchange later overwrites these ghosts
/// with identical bytes. Corner/edge ghosts are left untouched (the mu
/// kernels never read them).
void fillLateralGhosts(Field<double>& f, int z0, int z1);

} // namespace tpf::core
