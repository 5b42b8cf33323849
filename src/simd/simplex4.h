#pragma once
/// \file simplex4.h
/// Vectorized Gibbs-simplex projection for the four-cell kernels: four phase
/// values held in four registers (one lane per cell). The vertical sorting
/// network and the threshold selection mirror tpf::projectToSimplex4
/// operation-for-operation, so the result is bitwise identical per cell —
/// signed zeros, NaN and infinities included. Comparisons select through
/// V::blend, never V::max/V::min: the hardware max/min return their second
/// operand for +-0 and NaN inputs, which `a > b ? a : b` and
/// `std::max(v, 0.0)` do not.

namespace tpf::simd {

namespace detail {
/// hi = a > b ? a : b, lo = a > b ? b : a (tpf::cmpExchDesc).
template <typename V>
inline void cmpExchDesc(V& hi, V& lo) {
    const auto gt = hi > lo;
    const V a = hi;
    hi = V::blend(gt, a, lo);
    lo = V::blend(gt, lo, a);
}

/// std::max(v, 0.0), i.e. v < 0 ? 0 : v.
template <typename V>
inline V maxZero(V v) {
    const V zero = V::zero();
    return V::blend(v < zero, zero, v);
}
} // namespace detail

/// Project (x0, x1, x2, x3) lane-wise onto the unit simplex.
template <typename V>
inline void projectToSimplex4Lanes(V& x0, V& x1, V& x2, V& x3) {
    V u0 = x0, u1 = x1, u2 = x2, u3 = x3;
    // Sorting network (descending): (0,1)(2,3)(0,2)(1,3)(1,2) — identical to
    // the scalar projectToSimplex4.
    detail::cmpExchDesc(u0, u1);
    detail::cmpExchDesc(u2, u3);
    detail::cmpExchDesc(u0, u2);
    detail::cmpExchDesc(u1, u3);
    detail::cmpExchDesc(u1, u2);

    const V one = V::broadcast(1.0);
    const V c0 = u0;
    const V c1 = c0 + u1;
    const V c2 = c1 + u2;
    const V c3 = c2 + u3;
    const V t0 = c0 - one;
    const V t1 = (c1 - one) * V::broadcast(0.5);
    const V t2 = (c2 - one) * V::broadcast(1.0 / 3.0);
    const V t3 = (c3 - one) * V::broadcast(0.25);

    const V zero = V::zero();
    V tau = t0;
    tau = V::blend(u1 - t1 > zero, t1, tau);
    tau = V::blend(u2 - t2 > zero, t2, tau);
    tau = V::blend(u3 - t3 > zero, t3, tau);

    x0 = detail::maxZero(x0 - tau);
    x1 = detail::maxZero(x1 - tau);
    x2 = detail::maxZero(x2 - tau);
    x3 = detail::maxZero(x3 - tau);
}

} // namespace tpf::simd
