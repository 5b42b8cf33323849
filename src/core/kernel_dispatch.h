#pragma once
/// \file kernel_dispatch.h
/// Runtime instruction-set dispatch for the vectorized phi/mu sweeps.
///
/// The configure-time simd::Vec4d pick (src/simd/simd.h) bakes one backend
/// into the binary; reproducing the paper's numbers across machines — and
/// checking the bitwise-equivalence contract per backend — needs the choice
/// at *startup* instead. Each KernelTarget is the same kernel bodies
/// (core/phi_kernel_cellwise_body.h, core/phi_kernel_multicell_body.h,
/// core/mu_kernel_multicell_body.h) compiled in its own translation unit
/// (src/core/kernel_targets/) with that ISA's flags and vector types, behind
/// internal linkage so targets can never collapse into one symbol.
///
/// Selection: widest CPU-supported target by default, overridable with the
/// TPF_KERNEL environment variable or the --kernel CLI flag (kernel specs
/// "[schedule:]target", e.g. "avx2", "fused:avx512", "split:scalar"). All
/// targets are bitwise-identical by construction (same fma/rsqrt arithmetic
/// per lane; docs/CORRECTNESS.md), so the override is a reproducibility and
/// testing knob, not a results knob.

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
                        bool shortcuts, MuSweepPart part);
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

/// The selected target. First use resolves the TPF_KERNEL environment
/// variable (its target token; schedule tokens are the CLI's business) and
/// falls back to the widest available target. Never null. Not synchronized:
/// select once at startup, before sweeps run on worker threads.
const KernelTarget* activeKernelTarget();

/// Select a target by name; "auto" restores the widest available. Returns
/// false (and leaves the selection unchanged) for unknown or unsupported
/// names.
bool setKernelTarget(const std::string& name);

/// A parsed "[schedule:]target" kernel spec (--kernel / TPF_KERNEL).
struct KernelSpec {
    SweepSchedule schedule = SweepSchedule::Split;
    std::string target = "auto";
};

/// Parse a kernel spec: colon-separated tokens, each either a schedule
/// ("split" / "fused") or a target name ("auto" / "scalar" / "sse2" / "avx2"
/// / "avx512"). Availability is NOT checked here — use setKernelTarget.
/// Returns false with a message in \p err on malformed specs.
bool parseKernelSpec(const std::string& spec, KernelSpec& out,
                     std::string& err);

} // namespace tpf::core
