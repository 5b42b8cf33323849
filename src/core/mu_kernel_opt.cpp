/// \file mu_kernel_opt.cpp
/// Scalar mu-sweep with the algorithmic optimizations of the paper (minus
/// SIMD): T(z) slice cache, staggered buffering of the face fluxes
/// vbuf = (M grad mu - J_at) — "three of them can be buffered and reused
/// since they have already been calculated during the update of previous
/// cells" — and the exact face-level anti-trapping shortcut.

#include <vector>

#include "core/kernels.h"
#include "core/mu_face.h"

namespace tpf::core {

void muSweepScalarOpt(SimBlock& blk, const StepContext& ctx, bool shortcuts) {
    const ModelConsts& mc = ctx.mc;
    TPF_ASSERT(ctx.tz != nullptr, "ScalarOpt mu kernel requires a TzCache");
    const Field<double>& P = blk.phiSrc;
    const Field<double>& Pd = blk.phiDst;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.muDst;

    const int nx = blk.size.x, ny = blk.size.y, nz = blk.size.z;
    const int z0 = ctx.zLo(), z1 = ctx.zHi(nz);

    // Staggered buffers: each face value holds the KC = 2 flux components.
    // The z-plane buffer is seeded with an explicit face computation at the
    // slab bottom (z == z0) — the identical muFaceFluxAt call the full sweep
    // buffers, so slabbed and full sweeps stay bitwise equal.
    std::vector<double> rowY(static_cast<std::size_t>(nx) * KC);
    std::vector<double> planeZ(static_cast<std::size_t>(nx) * ny * KC);
    double carryX[KC] = {};

    for (int z = z0; z < z1; ++z) {
        const SliceThermo stM = ctx.tz->at(z - 1);
        const SliceThermo stC = ctx.tz->at(z);
        const SliceThermo stP = ctx.tz->at(z + 1);
        for (int y = 0; y < ny; ++y) {
            for (int x = 0; x < nx; ++x) {
                double fxmX, fxmY, fxpX, fxpY, fymX, fymY, fypX, fypY, fzmX,
                    fzmY, fzpX, fzpY;

                if (x == 0)
                    muFaceFluxAt(mc, P, Pd, Mu, stC, stC, 0, x - 1, y, z,
                                 shortcuts, fxmX, fxmY);
                else {
                    fxmX = carryX[0];
                    fxmY = carryX[1];
                }
                muFaceFluxAt(mc, P, Pd, Mu, stC, stC, 0, x, y, z,
                             shortcuts, fxpX, fxpY);
                carryX[0] = fxpX;
                carryX[1] = fxpY;

                double* ry = rowY.data() + static_cast<std::size_t>(x) * KC;
                if (y == 0)
                    muFaceFluxAt(mc, P, Pd, Mu, stC, stC, 1, x, y - 1, z,
                                 shortcuts, fymX, fymY);
                else {
                    fymX = ry[0];
                    fymY = ry[1];
                }
                muFaceFluxAt(mc, P, Pd, Mu, stC, stC, 1, x, y, z,
                             shortcuts, fypX, fypY);
                ry[0] = fypX;
                ry[1] = fypY;

                double* pz =
                    planeZ.data() + (static_cast<std::size_t>(y) * nx + x) * KC;
                if (z == z0)
                    muFaceFluxAt(mc, P, Pd, Mu, stM, stC, 2, x, y, z - 1,
                                 shortcuts, fzmX, fzmY);
                else {
                    fzmX = pz[0];
                    fzmY = pz[1];
                }
                muFaceFluxAt(mc, P, Pd, Mu, stC, stP, 2, x, y, z,
                             shortcuts, fzpX, fzpY);
                pz[0] = fzpX;
                pz[1] = fzpY;

                const double divX =
                    (((fxpX - fxmX) + (fypX - fymX)) + (fzpX - fzmX)) * mc.invDx;
                const double divY =
                    (((fxpY - fxmY) + (fypY - fymY)) + (fzpY - fzmY)) * mc.invDx;

                muCellFinish(mc, stC, P, Pd, Mu, Dst, x, y, z, divX, divY);
            }
        }
    }
}

} // namespace tpf::core
