#include "core/regions.h"

#include <cmath>

#include "util/fastmath.h"
#include "util/simplex.h"

namespace tpf::core {

CellRegion classifyPhi(const double p[N]) {
    for (int a = 0; a < N; ++a) {
        if (p[a] == 1.0)
            return a == LIQ ? CellRegion::BulkLiquid : CellRegion::BulkSolid;
    }
    return p[LIQ] > 0.0 ? CellRegion::Front : CellRegion::Interface;
}

CellRegion classifyCell(const Field<double>& phi, int x, int y, int z) {
    double p[N];
    for (int a = 0; a < N; ++a) p[a] = phi(x, y, z, a);
    return classifyPhi(p);
}

RegionStats classifyBlock(const Field<double>& phi) {
    RegionStats st;
    forEachCell(phi.interior(), [&](int x, int y, int z) {
        switch (classifyCell(phi, x, y, z)) {
            case CellRegion::BulkSolid: ++st.bulkSolid; break;
            case CellRegion::BulkLiquid: ++st.bulkLiquid; break;
            case CellRegion::Interface: ++st.interface; break;
            case CellRegion::Front: ++st.front; break;
        }
    });
    return st;
}

const char* scenarioName(Scenario s) {
    switch (s) {
        case Scenario::Interface: return "interface";
        case Scenario::Liquid: return "liquid";
        case Scenario::Solid: return "solid";
    }
    return "?";
}

namespace {

/// Smooth step in [0, 1] with the obstacle model's compact sinus profile of
/// total width w around position c: exactly 0 / 1 outside the interface (the
/// paper: "the interface region I is bounded due to a sinus-shaped interface
/// profile"), which is what creates exact bulk cells.
double sstep(double v, double c, double w) {
    const double s = (v - c) / w; // -0.5 .. 0.5 across the interface
    if (s <= -0.5) return 0.0;
    if (s >= 0.5) return 1.0;
    return 0.5 * (1.0 + sinpiCompact(s));
}

/// Solid phase index of the lamellar pattern at x (stripes of phases 0,1,2).
int lamellaPhase(int x, int width) {
    const int idx = (x / width) % 3;
    return idx;
}

} // namespace

void fillScenario(SimBlock& b, Scenario s, const thermo::TernarySystem& sys,
                  double eps, int lamellaWidth) {
    Field<double>& phi = b.phiSrc;
    Field<double>& mu = b.muSrc;
    const Vec2 muE = sys.muEut();
    const double w = std::max(2.0, eps);   // interface width in cells
    const double zFront = 0.5 * b.size.z; // front position for Interface

    forEachCell(phi.withGhosts(), [&](int x, int y, int z) {
        (void)y;
        double p[N] = {0, 0, 0, 0};
        switch (s) {
            case Scenario::Liquid: p[LIQ] = 1.0; break;
            case Scenario::Solid: {
                // Lamellae along x with a diffuse solid-solid boundary.
                const int xw = ((x % (3 * lamellaWidth)) + 3 * lamellaWidth) %
                               (3 * lamellaWidth);
                const int a0 = lamellaPhase(xw, lamellaWidth);
                const int a1 = (a0 + 1) % 3;
                const double posInStripe =
                    static_cast<double>(xw - a0 * lamellaWidth);
                const double t =
                    sstep(posInStripe, static_cast<double>(lamellaWidth) - 0.5, w);
                p[a0] = 1.0 - t;
                p[a1] = t;
                break;
            }
            case Scenario::Interface: {
                const double liq = sstep(static_cast<double>(z), zFront, w);
                const int xw = ((x % (3 * lamellaWidth)) + 3 * lamellaWidth) %
                               (3 * lamellaWidth);
                const int a0 = lamellaPhase(xw, lamellaWidth);
                p[LIQ] = liq;
                p[a0] = 1.0 - liq;
                break;
            }
        }
        // Snap near-vertex values to exact vertices: the obstacle model's
        // sinus-shaped profile has compact support, so bulk cells carry exact
        // 0/1 values in a converged simulation (the tanh tail here is an
        // initialization artifact the projection would truncate anyway).
        for (int a = 0; a < N; ++a) {
            if (p[a] >= 1.0 - 1e-6) {
                for (int c = 0; c < N; ++c) p[c] = (c == a) ? 1.0 : 0.0;
                break;
            }
            if (p[a] <= 1e-9) p[a] = 0.0;
        }
        double q0 = p[0], q1 = p[1], q2 = p[2], q3 = p[3];
        projectToSimplex4(q0, q1, q2, q3);
        phi(x, y, z, 0) = q0;
        phi(x, y, z, 1) = q1;
        phi(x, y, z, 2) = q2;
        phi(x, y, z, 3) = q3;

        mu(x, y, z, 0) = muE.x;
        mu(x, y, z, 1) = muE.y;
    });

    // phiDst starts as a copy so partial sweeps see consistent data.
    b.phiDst.copyFrom(b.phiSrc);
    b.muDst.copyFrom(b.muSrc);
}

} // namespace tpf::core
