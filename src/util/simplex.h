#pragma once
/// \file simplex.h
/// Euclidean projection onto the Gibbs simplex { x : x_i >= 0, sum x_i = 1 }.
///
/// The multi-obstacle potential of the phase-field model is +infinity outside
/// the simplex; the explicit Euler proposal is therefore projected back after
/// every update (the paper's "routine that projects the phi values back into
/// the allowed simplex"). The projection also *pins* bulk cells exactly at
/// simplex vertices, which is what makes the shortcut kernels bitwise
/// equivalent to the full kernels.
///
/// Algorithm: sort-based projection (Held/Wolfe/Crowder; cf. Condat 2016) —
/// exact, O(N log N); for the fixed N=4 of this model a sorting network is
/// used so the kernel versions (scalar and SIMD) agree bitwise.

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>

namespace tpf {

/// Project x (length N) onto the unit simplex in place. Generic size.
template <std::size_t N>
inline void projectToSimplex(std::array<double, N>& x) {
    std::array<double, N> u = x;
    std::sort(u.begin(), u.end(), std::greater<double>());
    double cssv = 0.0;
    double tau = 0.0;
    int k = 0;
    for (std::size_t j = 0; j < N; ++j) {
        cssv += u[j];
        const double t = (cssv - 1.0) / static_cast<double>(j + 1);
        if (u[j] - t > 0.0) {
            tau = t;
            k = static_cast<int>(j + 1);
        }
    }
    (void)k;
    for (std::size_t i = 0; i < N; ++i) x[i] = std::max(x[i] - tau, 0.0);
}

/// Compare-exchange (descending) helper for the N=4 sorting network.
inline void cmpExchDesc(double& hi, double& lo) {
    const double a = hi, b = lo;
    hi = a > b ? a : b;
    lo = a > b ? b : a;
}

/// Specialized N=4 projection with a 5-comparator sorting network.
/// Exactly the same arithmetic as the generic version, but branch-free sorting
/// so SIMD kernel variants can mirror it operation-for-operation.
inline void projectToSimplex4(double& x0, double& x1, double& x2, double& x3) {
    double u0 = x0, u1 = x1, u2 = x2, u3 = x3;
    // Sorting network (descending): (0,1)(2,3)(0,2)(1,3)(1,2)
    cmpExchDesc(u0, u1);
    cmpExchDesc(u2, u3);
    cmpExchDesc(u0, u2);
    cmpExchDesc(u1, u3);
    cmpExchDesc(u1, u2);

    // Candidate thresholds tau_j = (sum_{i<=j} u_i - 1)/(j+1); pick the largest j
    // with u_j - tau_j > 0.
    const double c0 = u0;
    const double c1 = c0 + u1;
    const double c2 = c1 + u2;
    const double c3 = c2 + u3;
    const double t0 = c0 - 1.0;
    const double t1 = (c1 - 1.0) * 0.5;
    const double t2 = (c2 - 1.0) * (1.0 / 3.0);
    const double t3 = (c3 - 1.0) * 0.25;

    double tau = t0;
    if (u1 - t1 > 0.0) tau = t1;
    if (u2 - t2 > 0.0) tau = t2;
    if (u3 - t3 > 0.0) tau = t3;

    x0 = std::max(x0 - tau, 0.0);
    x1 = std::max(x1 - tau, 0.0);
    x2 = std::max(x2 - tau, 0.0);
    x3 = std::max(x3 - tau, 0.0);
}

} // namespace tpf
