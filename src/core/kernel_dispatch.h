#pragma once
/// \file kernel_dispatch.h
/// Runtime instruction-set dispatch for the vectorized phi/mu sweeps.
///
/// Reproducing the paper's numbers across machines — and checking the
/// bitwise-equivalence contract per backend — needs the instruction-set
/// choice at *startup*, not at configure time. Each KernelTarget is the same
/// kernel bodies (core/phi_kernel_cellwise_body.h,
/// core/phi_kernel_multicell_body.h, core/mu_kernel_multicell_body.h)
/// compiled in its own translation unit (src/core/kernel_targets/) with that
/// ISA's flags and vector types, behind internal linkage so targets can never
/// collapse into one symbol.
///
/// Selection: widest CPU-supported target by default, overridable with the
/// TPF_KERNEL environment variable or the --kernel CLI flag, both naming a
/// bare target ("auto", "scalar", "sse2", "avx2", "avx512"). All targets are
/// bitwise-identical by construction (same fma/rsqrt arithmetic per lane;
/// docs/CORRECTNESS.md), so the override is a reproducibility and testing
/// knob, not a results knob.

#include <string>
#include <vector>

#include "core/kernels.h"

namespace tpf::core {

/// One runtime-dispatchable instruction-set target: the kernel-body entry
/// points compiled for a fixed ISA / vector-width combination.
struct KernelTarget {
    const char* name; ///< "scalar" / "sse2" / "avx2" / "avx512"
    int width;        ///< lanes of the multi-cell bodies (cellwise is 4-wide)
    void (*phiCellwise)(SimBlock&, const StepContext&, bool useTz, bool useStag,
                        bool shortcuts);
    void (*phiMultiCell)(SimBlock&, const StepContext&, bool useTz,
                         bool useStag, bool shortcuts);
    void (*muMultiCell)(SimBlock&, const StepContext&, bool useTz, bool useStag,
                        bool shortcuts);
};

// Per-ISA accessors; nullptr when the compiler could not build the target
// (defined in src/core/kernel_targets/kernels_<name>.cpp).
const KernelTarget* kernelTargetScalar();
const KernelTarget* kernelTargetSse2();
const KernelTarget* kernelTargetAvx2();
const KernelTarget* kernelTargetAvx512();

/// Targets that are compiled in AND supported by this CPU, narrowest first
/// (scalar always present).
std::vector<const KernelTarget*> availableKernelTargets();

/// A program's kernel-target choice: the target, or the usage error for an
/// unknown name ("unknown --kernel 'x' (auto, scalar, sse2, avx2, avx512)").
struct KernelChoice {
    const KernelTarget* target = nullptr; ///< non-null when error is empty
    std::string error;
};

/// Resolve the kernel target: \p flag (a program's --kernel value, empty when
/// absent), then $TPF_KERNEL, then "auto", the widest target this CPU
/// supports. An unknown name is an error. A known target this CPU lacks is an
/// error when the flag names it and falls back to "auto" when $TPF_KERNEL
/// does (the results are bitwise identical either way). Programs print a
/// non-empty error and exit 2.
KernelChoice resolveKernelTarget(const std::string& flag);

/// The selected target: the last setKernelTarget(), else
/// resolveKernelTarget("") on first use (an unknown $TPF_KERNEL is a hard
/// error). Never null. setKernelTarget() is not synchronized: select once at
/// startup, before sweeps run on worker threads.
const KernelTarget* activeKernelTarget();

/// Select a target by name; "auto" restores the widest available. Returns
/// false (and leaves the selection unchanged) for unknown or unsupported
/// names. Does not read $TPF_KERNEL, so a program's --kernel wins over it.
bool setKernelTarget(const std::string& name);

} // namespace tpf::core
