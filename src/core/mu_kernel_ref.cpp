/// \file mu_kernel_ref.cpp
/// Reference mu-sweep implementations (General: function-pointer dispatch per
/// cell; Basic: direct calls). Every face flux (M grad mu - J_at) . n is
/// computed afresh per cell; the vectorized bodies mirror these expressions
/// lane-wise (core/mu_kernel_multicell_body.h).

#include "core/kernels.h"
#include "core/model_common.h"
#include "grid/field.h"

namespace tpf::core {

namespace {

void loadPhiCell(const Field<double>& f, int x, int y, int z, double* p) {
    for (int a = 0; a < N; ++a) p[a] = f(x, y, z, a);
}

/// Face gradients of all phases at the staggered face between L and R along
/// \p axis: normal component from the face pair, transverse components from
/// averaged central differences of the two adjacent cells (D3C19 accesses).
FaceGradients muFaceGradients(const ModelConsts& mc, const Field<double>& P,
                              int axis, int xL, int yL, int zL) {
    const int ex[3] = {1, 0, 0};
    const int ey[3] = {0, 1, 0};
    const int ez[3] = {0, 0, 1};
    const int xR = xL + ex[axis], yR = yL + ey[axis], zR = zL + ez[axis];

    FaceGradients fg;
    for (int a = 0; a < N; ++a)
        fg.g[axis][a] = (P(xR, yR, zR, a) - P(xL, yL, zL, a)) * mc.invDx;

    for (int e = 0; e < 3; ++e) {
        if (e == axis) continue;
        const int dx = ex[e], dy = ey[e], dz = ez[e];
        for (int a = 0; a < N; ++a) {
            const double cdL =
                (P(xL + dx, yL + dy, zL + dz, a) - P(xL - dx, yL - dy, zL - dz, a));
            const double cdR =
                (P(xR + dx, yR + dy, zR + dz, a) - P(xR - dx, yR - dy, zR - dz, a));
            fg.g[e][a] = 0.5 * (cdL + cdR) * mc.halfInvDx;
        }
    }
    return fg;
}

/// Flux (M grad mu - J_at) . n at the face between cell L = (xL,yL,zL) and
/// its upper neighbor along \p axis.
void muFaceFluxAt(const ModelConsts& mc, const Field<double>& P,
                  const Field<double>& Pd, const Field<double>& Mu,
                  const SliceThermo& stL, const SliceThermo& stR, int axis,
                  int xL, int yL, int zL, double& Fx, double& Fy) {
    const int ex[3] = {1, 0, 0};
    const int ey[3] = {0, 1, 0};
    const int ez[3] = {0, 0, 1};
    const int xR = xL + ex[axis], yR = yL + ey[axis], zR = zL + ez[axis];

    double pL[N], pR[N];
    loadPhiCell(P, xL, yL, zL, pL);
    loadPhiCell(P, xR, yR, zR, pR);

    const double muLx = Mu(xL, yL, zL, 0), muLy = Mu(xL, yL, zL, 1);
    const double muRx = Mu(xR, yR, zR, 0), muRy = Mu(xR, yR, zR, 1);

    muGradFlux(mc, pL, pR, muLx, muLy, muRx, muRy, Fx, Fy);

    if (mc.antitrapping) {
        double pdL[N], pdR[N], dtL[N], dtR[N];
        loadPhiCell(Pd, xL, yL, zL, pdL);
        loadPhiCell(Pd, xR, yR, zR, pdR);
        for (int a = 0; a < N; ++a) {
            dtL[a] = (pdL[a] - pL[a]) * mc.invDt;
            dtR[a] = (pdR[a] - pR[a]) * mc.invDt;
        }
        const FaceGradients fg = muFaceGradients(mc, P, axis, xL, yL, zL);
        double Jx, Jy;
        antiTrappingFlux(mc, stL, stR, axis, pL, pR, dtL, dtR, fg,
                         0.5 * (muLx + muRx), 0.5 * (muLy + muRy), Jx, Jy);
        Fx -= Jx;
        Fy -= Jy;
    }
}

/// Cell-local part of the mu update shared by both variants: sources,
/// susceptibility solve, explicit Euler step.
///
/// The susceptibility and the dc/dT source use the *new* interpolation
/// weights h(phi_dst). With c linear in mu this makes the discrete update
/// exactly conservative:
///   c(phi_dst, mu_dst, T_new) - c(phi_src, mu_src, T_old)
///     = chi(phi_dst) dmu + sum_a c_a(mu_src, T_old)(hD_a - hS_a)
///       + sum_a hD_a (xi_a(T_new) - xi_a(T_old))
/// so solving chi(phi_dst) dmu = dt div F - (the two source sums) telescopes
/// the total concentration over any flux-closed domain.
void muCellFinish(const ModelConsts& mc, const SliceThermo& stC,
                  const Field<double>& P, const Field<double>& Pd,
                  const Field<double>& Mu, Field<double>& Dst, int x, int y,
                  int z, double divX, double divY) {
    double pD[N], hD[N];
    loadPhiCell(Pd, x, y, z, pD);
    moelansWeights(pD, hD);

    double pC[N], hS[N];
    loadPhiCell(P, x, y, z, pC);
    moelansWeights(pC, hS);

    const double mux = Mu(x, y, z, 0), muy = Mu(x, y, z, 1);
    double src1X = 0.0, src1Y = 0.0, src2X = 0.0, src2Y = 0.0;
    for (int a = 0; a < N; ++a) {
        const double cax = stC.xix[a] + mc.kinvA[a] * mux + mc.kinvB[a] * muy;
        const double cay = stC.xiy[a] + mc.kinvB[a] * mux + mc.kinvD[a] * muy;
        const double dh = (hD[a] - hS[a]) * mc.invDt;
        src1X -= cax * dh;
        src1Y -= cay * dh;
        src2X -= hD[a] * mc.dxidTx[a] * mc.dTdt;
        src2Y -= hD[a] * mc.dxidTy[a] * mc.dTdt;
    }
    const double rhsX = divX + (src1X + src2X);
    const double rhsY = divY + (src1Y + src2Y);

    double chiA, chiB, chiD;
    susceptibilityAt(mc, hD, chiA, chiB, chiD);

    double outX, outY;
    muUpdateCell(mc, chiA, chiB, chiD, rhsX, rhsY, Mu(x, y, z, 0),
                 Mu(x, y, z, 1), outX, outY);
    Dst(x, y, z, 0) = outX;
    Dst(x, y, z, 1) = outY;
}

struct SliceProvider {
    const StepContext& ctx;
    const SimBlock& blk;
    bool useCache;

    SliceThermo at(int z) const {
        if (useCache) {
            TPF_ASSERT(ctx.tz != nullptr, "kernel variant requires a TzCache");
            return ctx.tz->at(z);
        }
        TPF_ASSERT(ctx.temp != nullptr,
                   "kernel variant requires the analytic temperature");
        const double T =
            ctx.temp->atCell(blk.origin.z + z, ctx.time, ctx.windowOffset);
        return computeSliceThermo(ctx.mc, T);
    }
};

using MuFaceFluxFn = void (*)(const ModelConsts&, const Field<double>&,
                              const Field<double>&, const Field<double>&,
                              const SliceThermo&, const SliceThermo&, int, int,
                              int, int, double&, double&);

/// Direct (inlinable) face-flux dispatch.
struct DirectMuOps {
    static void face(const ModelConsts& mc, const Field<double>& P,
                     const Field<double>& Pd, const Field<double>& Mu,
                     const SliceThermo& stL, const SliceThermo& stR, int axis,
                     int xL, int yL, int zL, double& Fx, double& Fy) {
        muFaceFluxAt(mc, P, Pd, Mu, stL, stR, axis, xL, yL, zL, Fx, Fy);
    }
};

void generalMuFace(const ModelConsts& mc, const Field<double>& P,
                   const Field<double>& Pd, const Field<double>& Mu,
                   const SliceThermo& stL, const SliceThermo& stR, int axis,
                   int xL, int yL, int zL, double& Fx, double& Fy) {
    muFaceFluxAt(mc, P, Pd, Mu, stL, stR, axis, xL, yL, zL, Fx, Fy);
}

volatile bool gMuOpsInitialized = false;
MuFaceFluxFn gMuFace = nullptr;

/// Function-pointer face-flux dispatch — the per-cell indirection of the
/// original general-purpose code (PACE3D style).
struct GeneralMuOps {
    static void face(const ModelConsts& mc, const Field<double>& P,
                     const Field<double>& Pd, const Field<double>& Mu,
                     const SliceThermo& stL, const SliceThermo& stR, int axis,
                     int xL, int yL, int zL, double& Fx, double& Fy) {
        if (!gMuOpsInitialized) {
            gMuFace = &generalMuFace;
            gMuOpsInitialized = true;
        }
        gMuFace(mc, P, Pd, Mu, stL, stR, axis, xL, yL, zL, Fx, Fy);
    }
};

template <typename Ops>
void muSweepImpl(SimBlock& blk, const StepContext& ctx, bool useCache) {
    const ModelConsts& mc = ctx.mc;
    const Field<double>& P = blk.phiSrc;
    const Field<double>& Pd = blk.phiDst;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.muDst;
    const SliceProvider sp{ctx, blk, useCache};

    for (int z = ctx.zLo(); z < ctx.zHi(blk.size.z); ++z) {
        const SliceThermo stM = sp.at(z - 1);
        const SliceThermo stC = sp.at(z);
        const SliceThermo stP = sp.at(z + 1);
        for (int y = 0; y < blk.size.y; ++y) {
            for (int x = 0; x < blk.size.x; ++x) {
                // Six staggered face fluxes (lower cell listed first).
                double fxmX, fxmY, fxpX, fxpY, fymX, fymY, fypX, fypY, fzmX,
                    fzmY, fzpX, fzpY;
                Ops::face(mc, P, Pd, Mu, stC, stC, 0, x - 1, y, z, fxmX, fxmY);
                Ops::face(mc, P, Pd, Mu, stC, stC, 0, x, y, z, fxpX, fxpY);
                Ops::face(mc, P, Pd, Mu, stC, stC, 1, x, y - 1, z, fymX, fymY);
                Ops::face(mc, P, Pd, Mu, stC, stC, 1, x, y, z, fypX, fypY);
                Ops::face(mc, P, Pd, Mu, stM, stC, 2, x, y, z - 1, fzmX, fzmY);
                Ops::face(mc, P, Pd, Mu, stC, stP, 2, x, y, z, fzpX, fzpY);

                const double divX =
                    (((fxpX - fxmX) + (fypX - fymX)) + (fzpX - fzmX)) * mc.invDx;
                const double divY =
                    (((fxpY - fxmY) + (fypY - fymY)) + (fzpY - fzmY)) * mc.invDx;

                muCellFinish(mc, stC, P, Pd, Mu, Dst, x, y, z, divX, divY);
            }
        }
    }
}

} // namespace

void muSweepGeneral(SimBlock& blk, const StepContext& ctx) {
    muSweepImpl<GeneralMuOps>(blk, ctx, /*useCache=*/false);
}

void muSweepBasic(SimBlock& blk, const StepContext& ctx) {
    muSweepImpl<DirectMuOps>(blk, ctx, /*useCache=*/false);
}

} // namespace tpf::core
