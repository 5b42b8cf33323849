#pragma once
/// \file simd.h
/// Backend selection for the 4-wide double SIMD abstraction (the counterpart
/// of the paper's portable intrinsics API covering SSE2/SSE4/AVX/AVX2/QPX).
/// Here: AVX2 when available at compile time, portable scalar otherwise.
/// No kernel uses the tpf::simd::Vec4d alias: the sweeps run through the
/// runtime-dispatched targets of core/kernel_dispatch.h. Only the roofline
/// probe (perf/roofline.cpp) and bench_kernels_micro still use it; all
/// backends stay available for the cross-backend unit tests.

#include <string>

#include "simd/vec4d_scalar.h"
#include "simd/vec4d_sse2.h"
#include "simd/vec8d_scalar.h"

#if defined(__AVX2__)
#include "simd/vec4d_avx2.h"
namespace tpf::simd {
using Vec4d = Vec4dAvx2;
inline constexpr bool kHasAvx2 = true;
}
#elif defined(__SSE2__) || defined(_M_X64)
namespace tpf::simd {
using Vec4d = Vec4dSse2;
inline constexpr bool kHasAvx2 = false;
}
#else
namespace tpf::simd {
using Vec4d = Vec4dScalar;
inline constexpr bool kHasAvx2 = false;
}
#endif

#if defined(__AVX512F__)
#include "simd/vec8d_avx512.h"
namespace tpf::simd {
using Vec8d = Vec8dAvx512;
inline constexpr bool kHasAvx512 = true;
}
#else
namespace tpf::simd {
using Vec8d = Vec8dScalar;
inline constexpr bool kHasAvx512 = false;
}
#endif

namespace tpf::simd {

/// Human-readable name of the active backend ("AVX2" / "scalar").
std::string backendName();

/// Lane-wise select helper usable in generic code.
template <typename V>
inline V select(typename V::Mask m, V a, V b) {
    return V::blend(m, a, b);
}

} // namespace tpf::simd
