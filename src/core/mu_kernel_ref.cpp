/// \file mu_kernel_ref.cpp
/// Reference mu-sweep implementations (General: function-pointer dispatch per
/// cell; Basic: direct calls).

#include "core/kernels.h"
#include "core/mu_face.h"

namespace tpf::core {

namespace {

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
                              int, int, bool, double&, double&);

/// Direct (inlinable) face-flux dispatch.
struct DirectMuOps {
    static void face(const ModelConsts& mc, const Field<double>& P,
                     const Field<double>& Pd, const Field<double>& Mu,
                     const SliceThermo& stL, const SliceThermo& stR, int axis,
                     int xL, int yL, int zL, double& Fx, double& Fy) {
        muFaceFluxAt(mc, P, Pd, Mu, stL, stR, axis, xL, yL, zL,
                     /*shortcut=*/false, Fx, Fy);
    }
};

void generalMuFace(const ModelConsts& mc, const Field<double>& P,
                   const Field<double>& Pd, const Field<double>& Mu,
                   const SliceThermo& stL, const SliceThermo& stR, int axis,
                   int xL, int yL, int zL, bool sc, double& Fx, double& Fy) {
    muFaceFluxAt(mc, P, Pd, Mu, stL, stR, axis, xL, yL, zL, sc, Fx, Fy);
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
        gMuFace(mc, P, Pd, Mu, stL, stR, axis, xL, yL, zL, false, Fx, Fy);
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
