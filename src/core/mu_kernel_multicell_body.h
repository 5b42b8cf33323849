/// \file mu_kernel_multicell_body.h
/// Width-generic multi-cell mu-sweep body (the paper's four-cell strategy,
/// generalized: one SIMD vector holds one quantity of V::width consecutive
/// x-cells). NO include guard on purpose: included inside an anonymous
/// namespace with a `using V = <vector type>;` alias in scope — see
/// phi_kernel_cellwise_body.h for the linkage rationale and the prerequisite
/// includes.
///
/// Remainder handling for nx % V::width != 0 (still requiring nx % 4 == 0 and
/// nx >= V::width): the last x-group starts at nx - width, overlapping the
/// previous group. All face fluxes are lane-wise functions of the unmodified
/// inputs (phiSrc, phiDst, muSrc) — the per-group early-outs (mask `none()` /
/// shortcut `all()`) only skip work whose masked contribution is +0.0 — so a
/// recomputed face is bitwise what the buffered sweep stored. The staggered
/// y-row/z-plane carries at overlapped positions were already overwritten by
/// the previous group of the same row, so the tail group recomputes its fym /
/// fzm faces directly (the same expression the carry buffered; same argument
/// as the slab-bottom re-seed). Cell updates are pure overwrites of muDst, so
/// the overlapped lanes are stored again with the same bits.

inline void loadPhaseW(const Field<double>& f, int x, int y, int z, V out[N]) {
    for (int a = 0; a < N; ++a) out[a] = V::loadu(f.ptr(x, y, z, a));
}

/// M(phi) grad mu at V::width consecutive faces.
inline void gradFluxW(const ModelConsts& mc, const V pL[N], const V pR[N],
                      V muLx, V muLy, V muRx, V muRy, V& Fx, V& Fy) {
    const V half = V::broadcast(0.5);
    V mA = V::zero(), mB = V::zero(), mD = V::zero();
    for (int a = 0; a < N; ++a) {
        const V pf = half * (pL[a] + pR[a]) * V::broadcast(mc.Dphase[a]);
        mA += pf * V::broadcast(mc.kinvA[a]);
        mB += pf * V::broadcast(mc.kinvB[a]);
        mD += pf * V::broadcast(mc.kinvD[a]);
    }
    const V invDx = V::broadcast(mc.invDx);
    const V gx = (muRx - muLx) * invDx;
    const V gy = (muRy - muLy) * invDx;
    Fx = mA * gx + mB * gy;
    Fy = mB * gx + mD * gy;
}

/// Anti-trapping current (paper eq. 4) at V::width consecutive faces; lane
/// masks reproduce the scalar early-outs exactly (skipped lanes contribute 0).
inline void atFluxW(const ModelConsts& mc, const SliceThermo& stL,
                    const SliceThermo& stR, int axis, const V pL[N],
                    const V pR[N], const V dtL[N], const V dtR[N],
                    const V g[3][N], V mufx, V mufy, V& Jx, V& Jy) {
    const V zero = V::zero();
    const V one = V::broadcast(1.0);
    const V half = V::broadcast(0.5);
    const V tol = V::broadcast(kGradTol);

    Jx = zero;
    Jy = zero;

    V pf[N], dpdt[N];
    for (int a = 0; a < N; ++a) {
        pf[a] = half * (pL[a] + pR[a]);
        dpdt[a] = half * (dtL[a] + dtR[a]);
    }

    const V nl2 = g[0][LIQ] * g[0][LIQ] + g[1][LIQ] * g[1][LIQ] +
                  g[2][LIQ] * g[2][LIQ];
    const auto mL = nl2 > tol;
    if (mL.none()) return;
    const V invNl = V::rsqrtFast(V::blend(mL, nl2, one));

    const V s2 =
        ((pf[0] * pf[0] + pf[1] * pf[1]) + (pf[2] * pf[2] + pf[3] * pf[3]));
    const V hl = pf[LIQ] * pf[LIQ] / s2;
    const auto mHl = !(hl == zero);

    const V xilx = half * (V::broadcast(stL.xix[LIQ]) + V::broadcast(stR.xix[LIQ]));
    const V xily = half * (V::broadcast(stL.xiy[LIQ]) + V::broadcast(stR.xiy[LIQ]));

    for (int a = 0; a < N; ++a) {
        if (a == LIQ) continue;
        const V prod = pf[a] * pf[LIQ];
        const auto mP = prod > zero;
        const V na2 =
            g[0][a] * g[0][a] + g[1][a] * g[1][a] + g[2][a] * g[2][a];
        const auto mN = na2 > tol;
        const auto valid = (mL & mHl) & (mP & mN);
        if (valid.none()) continue;

        const V invNa = V::rsqrtFast(V::blend(valid, na2, one));
        const V ndot = (g[0][a] * g[0][LIQ] + g[1][a] * g[1][LIQ] +
                        g[2][a] * g[2][LIQ]) *
                       invNa * invNl;
        const V pref = V::broadcast(mc.piQuarterEps) * pf[a] * hl *
                       V::rsqrtFast(V::blend(valid, prod, one)) * dpdt[a] *
                       ndot;

        const V xiax = half * (V::broadcast(stL.xix[a]) + V::broadcast(stR.xix[a]));
        const V xiay = half * (V::broadcast(stL.xiy[a]) + V::broadcast(stR.xiy[a]));
        const V dcx = (xilx - xiax) +
                      V::broadcast(mc.kinvA[LIQ] - mc.kinvA[a]) * mufx +
                      V::broadcast(mc.kinvB[LIQ] - mc.kinvB[a]) * mufy;
        const V dcy = (xily - xiay) +
                      V::broadcast(mc.kinvB[LIQ] - mc.kinvB[a]) * mufx +
                      V::broadcast(mc.kinvD[LIQ] - mc.kinvD[a]) * mufy;

        const V nAxis = g[axis][a] * invNa;
        Jx += V::blend(valid, pref * dcx * nAxis, zero);
        Jy += V::blend(valid, pref * dcy * nAxis, zero);
    }
}

/// Face gradients (normal + averaged transverse central differences) for
/// V::width consecutive faces whose lower cells start at (x, y, z) along
/// \p axis.
inline void faceGradsW(const ModelConsts& mc, const Field<double>& P, int axis,
                       int x, int y, int z, V g[3][N]) {
    static constexpr int ex[3] = {1, 0, 0};
    static constexpr int ey[3] = {0, 1, 0};
    static constexpr int ez[3] = {0, 0, 1};
    const int xR = x + ex[axis], yR = y + ey[axis], zR = z + ez[axis];

    const V invDx = V::broadcast(mc.invDx);
    const V hx = V::broadcast(mc.halfInvDx);
    const V half = V::broadcast(0.5);

    for (int a = 0; a < N; ++a)
        g[axis][a] =
            (V::loadu(P.ptr(xR, yR, zR, a)) - V::loadu(P.ptr(x, y, z, a))) *
            invDx;

    for (int e = 0; e < 3; ++e) {
        if (e == axis) continue;
        const int dx = ex[e], dy = ey[e], dz = ez[e];
        for (int a = 0; a < N; ++a) {
            const V cdL = V::loadu(P.ptr(x + dx, y + dy, z + dz, a)) -
                          V::loadu(P.ptr(x - dx, y - dy, z - dz, a));
            const V cdR = V::loadu(P.ptr(xR + dx, yR + dy, zR + dz, a)) -
                          V::loadu(P.ptr(xR - dx, yR - dy, zR - dz, a));
            g[e][a] = half * (cdL + cdR) * hx;
        }
    }
}

/// Full flux (M grad mu - J_at) at V::width consecutive faces with lower
/// cells at (x, y, z) along \p axis.
inline void muFaceW(const ModelConsts& mc, const Field<double>& P,
                    const Field<double>& Pd, const Field<double>& Mu,
                    const SliceThermo& stL, const SliceThermo& stR, int axis,
                    int x, int y, int z, bool shortcut, V& Fx, V& Fy) {
    static constexpr int ex[3] = {1, 0, 0};
    static constexpr int ey[3] = {0, 1, 0};
    static constexpr int ez[3] = {0, 0, 1};
    const int xR = x + ex[axis], yR = y + ey[axis], zR = z + ez[axis];

    V pL[N], pR[N];
    loadPhaseW(P, x, y, z, pL);
    loadPhaseW(P, xR, yR, zR, pR);

    const V muLx = V::loadu(Mu.ptr(x, y, z, 0));
    const V muLy = V::loadu(Mu.ptr(x, y, z, 1));
    const V muRx = V::loadu(Mu.ptr(xR, yR, zR, 0));
    const V muRy = V::loadu(Mu.ptr(xR, yR, zR, 1));

    gradFluxW(mc, pL, pR, muLx, muLy, muRx, muRy, Fx, Fy);

    if (mc.antitrapping) {
        if (shortcut) {
            // Exact face-level skip when all faces of the group are
            // liquid-free or pure liquid on both sides.
            const V zero = V::zero();
            const V one = V::broadcast(1.0);
            const auto skip = ((pL[LIQ] == zero) & (pR[LIQ] == zero)) |
                              ((pL[LIQ] == one) & (pR[LIQ] == one));
            if (skip.all()) return;
        }
        const V invDt = V::broadcast(mc.invDt);
        V pdL[N], pdR[N], dtL[N], dtR[N];
        loadPhaseW(Pd, x, y, z, pdL);
        loadPhaseW(Pd, xR, yR, zR, pdR);
        for (int a = 0; a < N; ++a) {
            dtL[a] = (pdL[a] - pL[a]) * invDt;
            dtR[a] = (pdR[a] - pR[a]) * invDt;
        }
        V g[3][N];
        faceGradsW(mc, P, axis, x, y, z, g);
        V Jx, Jy;
        const V half = V::broadcast(0.5);
        atFluxW(mc, stL, stR, axis, pL, pR, dtL, dtR, g, half * (muLx + muRx),
                half * (muLy + muRy), Jx, Jy);
        Fx -= Jx;
        Fy -= Jy;
    }
}

/// Sources, susceptibility solve and update for V::width consecutive cells.
inline void cellFinishW(const ModelConsts& mc, const SliceThermo& stC,
                        const Field<double>& P, const Field<double>& Pd,
                        const Field<double>& Mu, Field<double>& Dst, int x,
                        int y, int z, V divX, V divY) {
    const V one = V::broadcast(1.0);

    V pD[N], hD[N];
    loadPhaseW(Pd, x, y, z, pD);
    {
        const V s2 =
            ((pD[0] * pD[0] + pD[1] * pD[1]) + (pD[2] * pD[2] + pD[3] * pD[3]));
        const V inv = one / s2;
        for (int a = 0; a < N; ++a) hD[a] = pD[a] * pD[a] * inv;
    }

    V pS[N], hS[N];
    loadPhaseW(P, x, y, z, pS);
    {
        const V s2 =
            ((pS[0] * pS[0] + pS[1] * pS[1]) + (pS[2] * pS[2] + pS[3] * pS[3]));
        const V inv = one / s2;
        for (int a = 0; a < N; ++a) hS[a] = pS[a] * pS[a] * inv;
    }

    const V mux = V::loadu(Mu.ptr(x, y, z, 0));
    const V muy = V::loadu(Mu.ptr(x, y, z, 1));
    const V invDt = V::broadcast(mc.invDt);
    V src1X = V::zero(), src1Y = V::zero(), src2X = V::zero(),
      src2Y = V::zero();
    for (int a = 0; a < N; ++a) {
        const V cax = V::broadcast(stC.xix[a]) +
                      V::broadcast(mc.kinvA[a]) * mux +
                      V::broadcast(mc.kinvB[a]) * muy;
        const V cay = V::broadcast(stC.xiy[a]) +
                      V::broadcast(mc.kinvB[a]) * mux +
                      V::broadcast(mc.kinvD[a]) * muy;
        const V dh = (hD[a] - hS[a]) * invDt;
        src1X -= cax * dh;
        src1Y -= cay * dh;
        src2X -= hD[a] * V::broadcast(mc.dxidTx[a]) * V::broadcast(mc.dTdt);
        src2Y -= hD[a] * V::broadcast(mc.dxidTy[a]) * V::broadcast(mc.dTdt);
    }
    const V rhsX = divX + (src1X + src2X);
    const V rhsY = divY + (src1Y + src2Y);

    V chiA = V::zero(), chiB = V::zero(), chiD = V::zero();
    for (int a = 0; a < N; ++a) {
        chiA += hD[a] * V::broadcast(mc.kinvA[a]);
        chiB += hD[a] * V::broadcast(mc.kinvB[a]);
        chiD += hD[a] * V::broadcast(mc.kinvD[a]);
    }
    const V invDet = one / (chiA * chiD - chiB * chiB);
    const V dmux = (chiD * rhsX - chiB * rhsY) * invDet;
    const V dmuy = (chiA * rhsY - chiB * rhsX) * invDet;

    const V dt = V::broadcast(mc.dt);
    const V outX = mux + dt * dmux;
    const V outY = muy + dt * dmuy;
    outX.storeu(Dst.ptr(x, y, z, 0));
    outY.storeu(Dst.ptr(x, y, z, 1));
}

void muSweepMultiCellBody(SimBlock& blk, const StepContext& ctx, bool useTz,
                          bool useStag, bool shortcuts) {
    constexpr int W = V::width;
    const ModelConsts& mc = ctx.mc;
    TPF_ASSERT(blk.phiSrc.layout() == Layout::fzyx &&
                   blk.muSrc.layout() == Layout::fzyx,
               "multi-cell vectorization requires the fzyx (SoA) layout");
    TPF_ASSERT(blk.size.x % 4 == 0 && blk.size.x >= W,
               "multi-cell vectorization requires nx divisible by 4 and nx >= width");
    if (useTz) TPF_ASSERT(ctx.tz != nullptr, "Tz variant requires a cache");

    const Field<double>& P = blk.phiSrc;
    const Field<double>& Pd = blk.phiDst;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.muDst;
    const int nx = blk.size.x, ny = blk.size.y, nz = blk.size.z;
    const int z0 = ctx.zLo(), z1 = ctx.zHi(nz);

    // Staggered buffers. x-faces live in a per-row buffer of nx+1 face values
    // (computed in a vectorized pre-pass); y-faces in a row buffer, z-faces
    // in a plane buffer, both refreshed in place while sweeping.
    std::vector<double, AlignedAllocator<double>> fxRowX, fxRowY, rowYX, rowYY,
        planeZX, planeZY;
    if (useStag) {
        fxRowX.assign(static_cast<std::size_t>(nx) + 8, 0.0);
        fxRowY.assign(static_cast<std::size_t>(nx) + 8, 0.0);
        rowYX.assign(static_cast<std::size_t>(nx), 0.0);
        rowYY.assign(static_cast<std::size_t>(nx), 0.0);
        planeZX.assign(static_cast<std::size_t>(nx) * ny, 0.0);
        planeZY.assign(static_cast<std::size_t>(nx) * ny, 0.0);
    }

    auto recompute = [&](int z) -> SliceThermo {
        const double T =
            ctx.temp->atCell(blk.origin.z + z, ctx.time, ctx.windowOffset);
        return computeSliceThermo(mc, T);
    };

    for (int z = z0; z < z1; ++z) {
        // With the T(z) optimization the slice values come from the per-step
        // cache; the "basic" variant recomputes them for every cell group —
        // the redundant work the optimization removes.
        SliceThermo stM, stC, stP;
        if (useTz) {
            stM = ctx.tz->at(z - 1);
            stC = ctx.tz->at(z);
            stP = ctx.tz->at(z + 1);
        }
        for (int y = 0; y < ny; ++y) {
            if (!useTz) {
                stM = recompute(z - 1);
                stC = recompute(z);
                stP = recompute(z + 1);
            }
            if (useStag) {
                // Pre-pass: all nx+1 x-face fluxes of this row, in groups of
                // W faces (the final group overlaps and recomputes up to
                // W - 1 faces — identical values, so the reuse stays exact).
                for (int i = -1; i < nx; i += W) {
                    const int ii = std::min(i, nx - W);
                    V Fx, Fy;
                    muFaceW(mc, P, Pd, Mu, stC, stC, 0, ii, y, z,
                            shortcuts, Fx, Fy);
                    Fx.storeu(fxRowX.data() + (ii + 1));
                    Fy.storeu(fxRowY.data() + (ii + 1));
                    if (ii != i) break; // tail group handled
                }
            }

            for (int x = 0; x < nx; x += W) {
                // Overlapped tail group (see file comment): the y/z carries
                // at the overlapped positions were already replaced by this
                // row's own fluxes, so recompute fym/fzm directly.
                const int xx = x + W <= nx ? x : nx - W;
                const bool tail = xx != x;
                V fxmX, fxmY, fxpX, fxpY, fymX, fymY, fypX, fypY, fzmX, fzmY,
                    fzpX, fzpY;

                if (useStag) {
                    fxmX = V::loadu(fxRowX.data() + xx);
                    fxmY = V::loadu(fxRowY.data() + xx);
                    fxpX = V::loadu(fxRowX.data() + xx + 1);
                    fxpY = V::loadu(fxRowY.data() + xx + 1);

                    if (y == 0 || tail) {
                        muFaceW(mc, P, Pd, Mu, stC, stC, 1, xx, y - 1, z,
                                shortcuts, fymX, fymY);
                    } else {
                        fymX = V::loadu(rowYX.data() + xx);
                        fymY = V::loadu(rowYY.data() + xx);
                    }
                    muFaceW(mc, P, Pd, Mu, stC, stC, 1, xx, y, z,
                            shortcuts, fypX, fypY);
                    fypX.storeu(rowYX.data() + xx);
                    fypY.storeu(rowYY.data() + xx);

                    double* pzx =
                        planeZX.data() + static_cast<std::size_t>(y) * nx + xx;
                    double* pzy =
                        planeZY.data() + static_cast<std::size_t>(y) * nx + xx;
                    if (z == z0 || tail) {
                        // Slab bottom (or overlapped tail): seed the z-carry
                        // with the identical muFaceW call the full sweep
                        // buffered at z - 1.
                        muFaceW(mc, P, Pd, Mu, stM, stC, 2, xx, y, z - 1,
                                shortcuts, fzmX, fzmY);
                    } else {
                        fzmX = V::loadu(pzx);
                        fzmY = V::loadu(pzy);
                    }
                    muFaceW(mc, P, Pd, Mu, stC, stP, 2, xx, y, z,
                            shortcuts, fzpX, fzpY);
                    fzpX.storeu(pzx);
                    fzpY.storeu(pzy);
                } else {
                    muFaceW(mc, P, Pd, Mu, stC, stC, 0, xx - 1, y, z,
                            shortcuts, fxmX, fxmY);
                    muFaceW(mc, P, Pd, Mu, stC, stC, 0, xx, y, z,
                            shortcuts, fxpX, fxpY);
                    muFaceW(mc, P, Pd, Mu, stC, stC, 1, xx, y - 1, z,
                            shortcuts, fymX, fymY);
                    muFaceW(mc, P, Pd, Mu, stC, stC, 1, xx, y, z,
                            shortcuts, fypX, fypY);
                    muFaceW(mc, P, Pd, Mu, stM, stC, 2, xx, y, z - 1,
                            shortcuts, fzmX, fzmY);
                    muFaceW(mc, P, Pd, Mu, stC, stP, 2, xx, y, z,
                            shortcuts, fzpX, fzpY);
                }

                const V invDx = V::broadcast(mc.invDx);
                const V divX =
                    (((fxpX - fxmX) + (fypX - fymX)) + (fzpX - fzmX)) * invDx;
                const V divY =
                    (((fxpY - fxmY) + (fypY - fymY)) + (fzpY - fzmY)) * invDx;

                cellFinishW(mc, stC, P, Pd, Mu, Dst, xx, y, z, divX, divY);
            }
        }
    }
}
