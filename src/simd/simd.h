#pragma once
/// \file simd.h
/// The configure-time 4-wide double vector type tpf::simd::Vec4d (the
/// counterpart of the paper's portable intrinsics API covering
/// SSE2/SSE4/AVX/AVX2/QPX): AVX2 when the build targets it, SSE2 on x86-64,
/// portable scalar otherwise. No kernel uses it: the sweeps run through the
/// runtime-dispatched targets of core/kernel_dispatch.h. Only the roofline
/// probe (perf/roofline.cpp) and bench_kernels_micro still do.

#include "simd/vec4d_avx2.h"
#include "simd/vec4d_scalar.h"
#include "simd/vec4d_sse2.h"

namespace tpf::simd {

#if defined(__AVX2__)
using Vec4d = Vec4dAvx2;
#elif defined(__SSE2__) || defined(_M_X64)
using Vec4d = Vec4dSse2;
#else
using Vec4d = Vec4dScalar;
#endif

} // namespace tpf::simd
