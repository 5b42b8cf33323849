#pragma once
/// \file kernels.h
/// Registry of all phi / mu kernel implementations and the dispatch API.
///
/// The variants reproduce the optimization stages of the paper's Figure 6 and
/// the vectorization strategies of Figure 5:
///
///  phi kernels                          | paper label
///  -------------------------------------+---------------------------------
///  General                              | "general purpose C code"
///  Basic                                | "basic waLBerla implementation"
///  Simd        (cellwise, no caches)    | "with SIMD intrinsics, single cell"
///  SimdTz      (+ z-slice cache)        | "with T(z) optimization"
///  SimdTzStag  (+ staggered buffers)    | "with staggered buffer"
///  SimdTzStagCut (+ bulk shortcuts)     | "with shortcuts"
///  SimdFourCell (multi-cell Tz+Stag+Cut)| Figure 5 "four cells"  [production]
///
///  The Simd* kinds run the body of the runtime-selected instruction-set
///  target (core/kernel_dispatch.h); under `--kernel scalar` they are the
///  ablation "all algorithmic optimizations without SIMD", whose rungs
///  the tests pin byte-identical to SimdTzStagCut.
///
///  SimdFourCell holds one phase of V::width consecutive x-cells per vector
///  (8 under the avx512 target) and is bitwise equal to SimdTzStagCut; blocks
///  it cannot take (nx below the target width, zyxf layout) run the cellwise
///  SimdTzStagCut body instead. mu kernels mirror the same stages with
///  multi-cell vectorization (the only viable strategy for the mu-sweep, as
///  in the paper); mu blocks narrower than the target width run the 4-wide
///  scalar target's body.
///
/// All variants are checked for equivalence by tests/test_phi_kernels.cpp and
/// tests/test_mu_kernels.cpp (docs/KERNELS.md "Variant contract").

#include <string>
#include <vector>

#include "core/sim_block.h"
#include "core/temperature.h"
#include "grid/cell_interval.h"

namespace tpf::core {

enum class PhiKernelKind {
    General,
    Basic,
    Simd,
    SimdTz,
    SimdTzStag,
    SimdTzStagCut,
    SimdFourCell,
};

enum class MuKernelKind {
    General,
    Basic,
    Simd,
    SimdTz,
    SimdTzStag,
    SimdTzStagCut,
};

/// Per-step, per-block inputs of a kernel invocation.
struct StepContext {
    ModelConsts mc;
    const TzCache* tz = nullptr;            ///< slice cache (Tz variants)
    const FrozenTemperature* temp = nullptr; ///< analytic T (non-Tz variants)
    double time = 0.0;
    double windowOffset = 0.0;

    /// z-slab restriction of the sweep in local block coordinates, half-open
    /// [zBegin, zEnd); zEnd == -1 means the full block extent. Used by the
    /// slab-parallel execution layer (core/slab_sweep.h): every variant
    /// restarts its staggered z-carries at zBegin with the same face-flux
    /// expression the full sweep buffers, so a slabbed sweep matches an
    /// unrestricted one in value — byte-for-byte only across runs using the
    /// *same* partition, since shortcut paths may buffer +0.0 where a seed
    /// computes -0.0 (which is why parallelForSlabs slabs even its serial
    /// path; see docs/KERNELS.md).
    int zBegin = 0;
    int zEnd = -1;

    /// The resolved half-open z-range for a block of \p nz interior slices.
    int zLo() const { return zBegin; }
    int zHi(int nz) const { return zEnd < 0 ? nz : zEnd; }

    /// Copy of this context restricted to the z-extent of \p slab.
    StepContext forSlab(const CellInterval& slab) const {
        StepContext c = *this;
        c.zBegin = slab.zMin;
        c.zEnd = slab.zMax + 1;
        return c;
    }
};

void runPhiKernel(PhiKernelKind k, SimBlock& b, const StepContext& ctx);
void runMuKernel(MuKernelKind k, SimBlock& b, const StepContext& ctx);

std::string kernelName(PhiKernelKind k);
std::string kernelName(MuKernelKind k);

/// All variants, in the Figure-6 progression order.
const std::vector<PhiKernelKind>& allPhiKernels();
const std::vector<MuKernelKind>& allMuKernels();

/// True if the variant requires a built TzCache in the context.
bool needsTzCache(PhiKernelKind k);
bool needsTzCache(MuKernelKind k);

// --- individual implementations (defined in the phi_kernel_* / mu_kernel_*
// translation units; prefer runPhiKernel/runMuKernel for dispatch) ---
void phiSweepGeneral(SimBlock& b, const StepContext& ctx);
void phiSweepBasic(SimBlock& b, const StepContext& ctx);

void muSweepGeneral(SimBlock& b, const StepContext& ctx);
void muSweepBasic(SimBlock& b, const StepContext& ctx);

} // namespace tpf::core
