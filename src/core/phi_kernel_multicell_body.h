/// \file phi_kernel_multicell_body.h
/// Width-generic multi-cell phi-sweep body — the production phi-sweep. One
/// SIMD vector holds one phase of V::width consecutive x-cells (8 under
/// avx512), so the whole cell update runs W cells at a time. NO include guard
/// on purpose: included inside an anonymous namespace with a
/// `using V = <vector type>;` alias in scope — see
/// phi_kernel_cellwise_body.h for the linkage rationale and the prerequisite
/// includes.
///
/// Bitwise contract: every lane reproduces the cellwise body
/// (phi_kernel_cellwise_body.h) operation for operation, for every
/// useTz/useStag/shortcuts combination:
///  - pair terms (face flux, da/dphi, sum gamma phi) run in the cellwise
///    rotation order b = a+1, a+2, a+3, from V::zero() exactly where the
///    cellwise expression starts from it;
///  - four-phase sums use laneSum's per-lane association
///    (v[a]+v[a+1]) + (v[a+2]+v[a+3]), which has one form for the even and
///    one for the odd phases (sumPairs below); P = 1/2 (S^2 - sum p^2);
///  - the bulk shortcut is a per-lane blend (bulk lanes store pC), and since
///    the cellwise bulk path zeroes its carries, a staggered face whose lower
///    cell is bulk reads +0.0 wherever the cellwise body reads a carry
///    (x > 0, y > 0, z > z0);
///  - the projection is simd::projectToSimplex4Lanes, bitwise equal to the
///    scalar projectToSimplex4 the cellwise body calls.
///
/// Remainder handling for nx % V::width != 0 (requires nx >= V::width): the
/// last x-group starts at nx - width and overlaps the previous group. Its
/// x-faces come from the row pre-pass, but the y/z carries at the overlapped
/// positions already hold this row's fluxes, so those lanes compute wrong
/// values; the tail store keeps the previously stored bits of the overlapped
/// lanes. The carries it writes there are bitwise what the previous group
/// wrote (same inputs, same bulk lanes).

/// Face flux for V::width consecutive faces along one axis, per phase a
/// (inputs are per-phase vectors over the cell pairs):
///   flux_a = -2 eps sum_{b=a+1..a+3} gamma_ab pf_b (pf_a dp_b - pf_b dp_a)
inline void faceFluxM(const ModelConsts& mc, const V pL[N], const V pR[N],
                      V flux[N]) {
    const V half = V::broadcast(0.5);
    const V invDx = V::broadcast(mc.invDx);
    V pf[N], dp[N];
    for (int a = 0; a < N; ++a) {
        pf[a] = half * (pL[a] + pR[a]);
        dp[a] = (pR[a] - pL[a]) * invDx;
    }
    for (int a = 0; a < N; ++a) {
        V acc = V::zero();
        for (int k = 1; k < N; ++k) {
            const int b = (a + k) % N;
            acc += V::broadcast(mc.gamma[a][b]) * pf[b] *
                   (pf[a] * dp[b] - pf[b] * dp[a]);
        }
        flux[a] = V::broadcast(-2.0 * mc.eps) * acc;
    }
}

/// The cellwise laneSum of \p v as seen by phase a: sums[a & 1].
inline void sumPairs(const V v[N], V sums[2]) {
    sums[0] = (v[0] + v[1]) + (v[2] + v[3]);
    sums[1] = (v[1] + v[2]) + (v[3] + v[0]);
}

inline void loadPhaseM(const Field<double>& f, int x, int y, int z, V out[N]) {
    for (int a = 0; a < N; ++a) out[a] = V::loadu(f.ptr(x, y, z, a));
}

/// Lanes whose cell and six face neighbors all sit at one simplex vertex.
inline V::Mask bulkLanesM(const Field<double>& P, int x, int y, int z) {
    const V one = V::broadcast(1.0);
    auto at = [&](int dx, int dy, int dz, int a) {
        return V::loadu(P.ptr(x + dx, y + dy, z + dz, a)) == one;
    };
    V::Mask bulk = at(0, 0, 0, 0) & at(-1, 0, 0, 0) & at(1, 0, 0, 0) &
                   at(0, -1, 0, 0) & at(0, 1, 0, 0) & at(0, 0, -1, 0) &
                   at(0, 0, 1, 0);
    for (int a = 1; a < N; ++a)
        bulk = bulk | (at(0, 0, 0, a) & at(-1, 0, 0, a) & at(1, 0, 0, a) &
                       at(0, -1, 0, a) & at(0, 1, 0, a) & at(0, 0, -1, a) &
                       at(0, 0, 1, a));
    return bulk;
}

/// Mask of lanes [0, n) — the overlapped lanes of a tail group.
inline V::Mask lanesBelowM(int n) {
    double idx[V::width];
    for (int i = 0; i < V::width; ++i) idx[i] = static_cast<double>(i);
    return V::loadu(idx) < V::broadcast(static_cast<double>(n));
}

/// The phi update of V::width cells from their stencil and face fluxes;
/// returns the projected phi(t+dt) per phase in \p out.
inline void cellUpdateM(const ModelConsts& mc, const SliceThermo& st,
                        const V pC[N], const V pW[N], const V pE[N],
                        const V pS[N], const V pNn[N], const V pB[N],
                        const V pT[N], const V fxm[N], const V fxp[N],
                        const V fym[N], const V fyp[N], const V fzm[N],
                        const V fzp[N], V mux, V muy, V out[N]) {
    const V invDx = V::broadcast(mc.invDx);
    const V hx = V::broadcast(mc.halfInvDx);
    const V one = V::broadcast(1.0);
    const V half = V::broadcast(0.5);
    const V two = V::broadcast(2.0);

    V div[N], g0[N], g1[N], g2[N], p2[N];
    for (int a = 0; a < N; ++a) {
        div[a] = (((fxp[a] - fxm[a]) + (fyp[a] - fym[a])) + (fzp[a] - fzm[a])) *
                 invDx;
        g0[a] = (pE[a] - pW[a]) * hx;
        g1[a] = (pNn[a] - pS[a]) * hx;
        g2[a] = (pT[a] - pB[a]) * hx;
        p2[a] = pC[a] * pC[a];
    }

    V S[2], Q[2], invS2[2];
    sumPairs(pC, S);
    sumPairs(p2, Q);
    for (int k = 0; k < 2; ++k) invS2[k] = one / Q[k];

    V om[N], oh[N], omBar[2];
    for (int a = 0; a < N; ++a) {
        const V quad = half * (V::broadcast(mc.kinvA[a]) * mux * mux +
                               two * V::broadcast(mc.kinvB[a]) * mux * muy +
                               V::broadcast(mc.kinvD[a]) * muy * muy);
        om[a] = -quad -
                (mux * V::broadcast(st.xix[a]) + muy * V::broadcast(st.xiy[a])) +
                V::broadcast(st.om[a]);
        oh[a] = om[a] * (p2[a] * invS2[a & 1]);
    }
    sumPairs(oh, omBar);

    const V Tt = V::broadcast(st.Tt);
    V rhs[N];
    for (int a = 0; a < N; ++a) {
        // da/dphi: 2 eps sum_b gamma_ab (q_ab . grad phi_b).
        V dad = V::zero();
        for (int k = 1; k < N; ++k) {
            const int b = (a + k) % N;
            const V dot = (pC[a] * g0[b] - pC[b] * g0[a]) * g0[b] +
                          (pC[a] * g1[b] - pC[b] * g1[a]) * g1[b] +
                          (pC[a] * g2[b] - pC[b] * g2[a]) * g2[b];
            dad += V::broadcast(mc.gamma[a][b]) * dot;
        }
        dad *= V::broadcast(2.0 * mc.eps);

        // Obstacle derivative: w16 sum gamma phi + gamma3 (P - phi (S - phi)).
        const int b1 = (a + 1) % N, b2 = (a + 2) % N, b3 = (a + 3) % N;
        const V sumGP = V::broadcast(mc.gamma[a][b1]) * pC[b1] +
                        V::broadcast(mc.gamma[a][b2]) * pC[b2] +
                        V::broadcast(mc.gamma[a][b3]) * pC[b3];
        const V& Sa = S[a & 1];
        const V P = half * (Sa * Sa - Q[a & 1]);
        const V dom = V::broadcast(mc.w16) * sumGP +
                      V::broadcast(mc.gamma3) * (P - pC[a] * (Sa - pC[a]));

        const V dpsi = two * pC[a] * invS2[a & 1] * (om[a] - omBar[a & 1]);
        rhs[a] = Tt * (div[a] - dad) - Tt * V::broadcast(mc.invEps) * dom - dpsi;
    }

    V rhsSum[2];
    sumPairs(rhs, rhsSum);
    const V quarter = V::broadcast(0.25);
    for (int a = 0; a < N; ++a)
        out[a] = pC[a] + V::broadcast(mc.dt) * V::broadcast(mc.invTauEps[a]) *
                             (rhs[a] - quarter * rhsSum[a & 1]);
    simd::projectToSimplex4Lanes(out[0], out[1], out[2], out[3]);
}

void phiSweepMultiCellBody(SimBlock& blk, const StepContext& ctx, bool useTz,
                           bool useStag, bool shortcuts) {
    constexpr int W = V::width;
    const ModelConsts& mc = ctx.mc;
    TPF_ASSERT(blk.phiSrc.layout() == Layout::fzyx &&
                   blk.muSrc.layout() == Layout::fzyx,
               "multi-cell vectorization requires the fzyx (SoA) layout");
    TPF_ASSERT(blk.size.x >= W, "multi-cell vectorization requires nx >= width");
    if (useTz) TPF_ASSERT(ctx.tz != nullptr, "Tz variant requires a cache");

    const Field<double>& P = blk.phiSrc;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.phiDst;
    const int nx = blk.size.x, ny = blk.size.y, nz = blk.size.z;
    const int z0 = ctx.zLo(), z1 = ctx.zHi(nz);
    const std::size_t snx = static_cast<std::size_t>(nx);
    const V zero = V::zero();
    const V one = V::broadcast(1.0);

    // Per row: bulk flags (1.0 / 0.0) with a never-bulk slot for cell -1 at
    // index 0, and the nx+1 x-face fluxes per phase. Per sweep: the y-face
    // row and z-face plane carries per phase, refreshed in place.
    std::vector<double, AlignedAllocator<double>> bulkRow(snx + 1, 0.0), fxRow,
        rowY, planeZ;
    if (useStag) {
        fxRow.assign((snx + 1) * N, 0.0);
        rowY.assign(snx * N, 0.0);
        planeZ.assign(snx * ny * N, 0.0);
    }
    auto fx = [&](int a) { return fxRow.data() + a * (snx + 1); };
    auto ry = [&](int a) { return rowY.data() + a * snx; };
    auto pz = [&](int a, int y) {
        return planeZ.data() + (static_cast<std::size_t>(a) * ny + y) * snx;
    };

    SliceThermo st;
    for (int z = z0; z < z1; ++z) {
        for (int y = 0; y < ny; ++y) {
            // With the T(z) optimization the slice values come from the
            // per-step cache; the "basic" variant recomputes them per row.
            st = useTz ? ctx.tz->at(z)
                       : computeSliceThermo(
                             mc, ctx.temp->atCell(blk.origin.z + z, ctx.time,
                                                  ctx.windowOffset));
            if (shortcuts) {
                for (int x = 0; x < nx; x += W) {
                    const int xx = std::min(x, nx - W);
                    V::blend(bulkLanesM(P, xx, y, z), one, zero)
                        .storeu(bulkRow.data() + 1 + xx);
                }
            }
            if (useStag) {
                // Pre-pass: the nx+1 x-face fluxes of this row, in groups of
                // W faces with lower cells ii..ii+W-1 (the final group
                // overlaps and recomputes identical values). Faces whose
                // lower cell is bulk hold +0.0, the cellwise zeroed carry.
                for (int i = -1; i < nx; i += W) {
                    const int ii = std::min(i, nx - W);
                    const auto lowerBulk =
                        V::loadu(bulkRow.data() + 1 + ii) == one;
                    V f[N];
                    if (lowerBulk.all()) {
                        for (int a = 0; a < N; ++a) f[a] = zero;
                    } else {
                        V pL[N], pR[N];
                        loadPhaseM(P, ii, y, z, pL);
                        loadPhaseM(P, ii + 1, y, z, pR);
                        faceFluxM(mc, pL, pR, f);
                        for (int a = 0; a < N; ++a)
                            f[a] = V::blend(lowerBulk, zero, f[a]);
                    }
                    for (int a = 0; a < N; ++a) f[a].storeu(fx(a) + ii + 1);
                    if (ii != i) break; // tail group handled
                }
            }

            for (int x = 0; x < nx; x += W) {
                const int xx = std::min(x, nx - W); // overlapped tail group
                const auto bulk = V::loadu(bulkRow.data() + 1 + xx) == one;
                V pC[N];
                loadPhaseM(P, xx, y, z, pC);

                if (bulk.all()) {
                    for (int a = 0; a < N; ++a) {
                        pC[a].storeu(Dst.ptr(xx, y, z, a));
                        if (useStag) {
                            zero.storeu(ry(a) + xx);
                            zero.storeu(pz(a, y) + xx);
                        }
                    }
                    continue;
                }

                V pW[N], pE[N], pS[N], pNn[N], pB[N], pT[N];
                loadPhaseM(P, xx - 1, y, z, pW);
                loadPhaseM(P, xx + 1, y, z, pE);
                loadPhaseM(P, xx, y - 1, z, pS);
                loadPhaseM(P, xx, y + 1, z, pNn);
                loadPhaseM(P, xx, y, z - 1, pB);
                loadPhaseM(P, xx, y, z + 1, pT);

                V fxm[N], fxp[N], fym[N], fyp[N], fzm[N], fzp[N];
                if (useStag) {
                    for (int a = 0; a < N; ++a) {
                        fxm[a] = V::loadu(fx(a) + xx);
                        fxp[a] = V::loadu(fx(a) + xx + 1);
                    }
                    if (y == 0) {
                        faceFluxM(mc, pS, pC, fym);
                    } else {
                        for (int a = 0; a < N; ++a) fym[a] = V::loadu(ry(a) + xx);
                    }
                    faceFluxM(mc, pC, pNn, fyp);
                    if (z == z0) {
                        // Slab bottom: the face flux the full sweep buffered
                        // at z - 1.
                        faceFluxM(mc, pB, pC, fzm);
                    } else {
                        for (int a = 0; a < N; ++a)
                            fzm[a] = V::loadu(pz(a, y) + xx);
                    }
                    faceFluxM(mc, pC, pT, fzp);
                    for (int a = 0; a < N; ++a) {
                        V::blend(bulk, zero, fyp[a]).storeu(ry(a) + xx);
                        V::blend(bulk, zero, fzp[a]).storeu(pz(a, y) + xx);
                    }
                } else {
                    faceFluxM(mc, pW, pC, fxm);
                    faceFluxM(mc, pC, pE, fxp);
                    faceFluxM(mc, pS, pC, fym);
                    faceFluxM(mc, pC, pNn, fyp);
                    faceFluxM(mc, pB, pC, fzm);
                    faceFluxM(mc, pC, pT, fzp);
                }

                V out[N];
                cellUpdateM(mc, st, pC, pW, pE, pS, pNn, pB, pT, fxm, fxp, fym,
                            fyp, fzm, fzp, V::loadu(Mu.ptr(xx, y, z, 0)),
                            V::loadu(Mu.ptr(xx, y, z, 1)), out);
                for (int a = 0; a < N; ++a) {
                    double* d = Dst.ptr(xx, y, z, a);
                    V res = V::blend(bulk, pC[a], out[a]);
                    if (xx != x) res = V::blend(lanesBelowM(x - xx), V::loadu(d), res);
                    res.storeu(d);
                }
            }
        }
    }
}
