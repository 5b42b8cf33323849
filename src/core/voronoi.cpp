#include "core/voronoi.h"

#include <cmath>
#include <vector>

#include "util/fastmath.h"
#include "util/random.h"
#include "util/simplex.h"

namespace tpf::core {

namespace {

struct Seed {
    double x, y;
    int phase;
};

/// Global seed list — identical on every rank because it only depends on the
/// configuration (the paper's initialization phase computes the global block
/// setup once and distributes it).
std::vector<Seed> makeSeeds(Int3 g, const VoronoiConfig& cfg,
                            const std::array<double, 3>& fractions) {
    const int per = cfg.seedsPerArea > 0 ? cfg.seedsPerArea : 12;
    const int count =
        std::max(3, (g.x / per) * std::max(1, g.y / per));

    Random rng(cfg.seed);
    std::vector<Seed> seeds;
    seeds.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        Seed s;
        s.x = rng.uniform(0.0, static_cast<double>(g.x));
        s.y = rng.uniform(0.0, static_cast<double>(g.y));
        const double r = rng.uniform();
        if (r < fractions[0])
            s.phase = 0;
        else if (r < fractions[0] + fractions[1])
            s.phase = 1;
        else
            s.phase = 2;
        seeds.push_back(s);
    }
    return seeds;
}

/// Squared distance under periodic wrapping in x and y.
double periodicDist2(double dx, double dy, double Lx, double Ly, bool px,
                     bool py) {
    if (px) {
        dx = std::abs(dx);
        if (dx > 0.5 * Lx) dx = Lx - dx;
    }
    if (py) {
        dy = std::abs(dy);
        if (dy > 0.5 * Ly) dy = Ly - dy;
    }
    return dx * dx + dy * dy;
}

/// The x/y part of the initial condition: the nearest seed, the nearest
/// seed of a *different* phase, and the weight of the first across their
/// Voronoi edge. Depends on the column (x, y) only, so it is computed once
/// per column instead of once per cell.
struct Column {
    int phase1 = 0, phase2 = 0;
    double w1 = 1.0;
};

/// Interface width of the initial profiles, fixed at 4 cells (the solver's
/// default eps).
constexpr double kInitWidth = 4.0;

/// Columns of the \p nx x \p ny rectangle whose first column is global
/// cell (x0, y0), x fastest.
std::vector<Column> columnTable(const std::vector<Seed>& seeds, Int3 g,
                                std::array<bool, 3> per, int x0, int y0,
                                int nx, int ny) {
    std::vector<Column> cols;
    cols.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
    for (int y = y0; y < y0 + ny; ++y) {
        for (int x = x0; x < x0 + nx; ++x) {
            const double gx = static_cast<double>(x) + 0.5;
            const double gy = static_cast<double>(y) + 0.5;
            // The solid-solid boundary gets the same compact sine profile
            // across the Voronoi edge as the front (sharp lateral boundaries
            // would imprint a long-lived chemical-potential transient into
            // the solid, where diffusion is frozen).
            double d1 = 1e300, d2 = 1e300;
            Column c;
            for (const Seed& s : seeds) {
                const double d = std::sqrt(periodicDist2(
                    gx - s.x, gy - s.y, static_cast<double>(g.x),
                    static_cast<double>(g.y), per[0], per[1]));
                if (d < d1) {
                    if (c.phase1 != s.phase) {
                        d2 = d1;
                        c.phase2 = c.phase1;
                    }
                    d1 = d;
                    c.phase1 = s.phase;
                } else if (d < d2 && s.phase != c.phase1) {
                    d2 = d;
                    c.phase2 = s.phase;
                }
            }
            const double edgeDist = 0.5 * (d2 - d1); // >= 0, 0 on the edge
            const double t = std::min(edgeDist / kInitWidth, 0.5);
            c.w1 = 0.5 * (1.0 + sinpiCompact(t));
            cols.push_back(c);
        }
    }
    return cols;
}

/// Diffuse solid-liquid front: the obstacle model's compact sine profile
/// of width kInitWidth around the fill height avoids the large initial mu
/// transient a sharp front would cause.
double liquidFraction(double gz, int fillHeight) {
    const double s = (gz - static_cast<double>(fillHeight)) / kInitWidth;
    if (s <= -0.5) return 0.0;
    if (s >= 0.5) return 1.0;
    return 0.5 * (1.0 + sinpiCompact(s));
}

/// Order parameters of a cell of column \p c with liquid fraction \p liq.
void cellPhi(const Column& c, double liq, double p[N]) {
    p[0] = p[1] = p[2] = 0.0;
    p[LIQ] = liq;
    if (liq < 1.0) {
        p[c.phase1] += (1.0 - liq) * c.w1;
        p[c.phase2] += (1.0 - liq) * (1.0 - c.w1);
    }
    projectToSimplex4(p[0], p[1], p[2], p[3]);
}

std::array<double, 3> solidFractions(const VoronoiConfig& cfg,
                                     const thermo::TernarySystem& sys) {
    std::array<double, 3> fr = cfg.fractions;
    if (fr[0] + fr[1] + fr[2] <= 0.0) fr = sys.leverFractions().solid;
    return fr;
}

} // namespace

void initVoronoi(SimBlock& b, const BlockForest& bf, const VoronoiConfig& cfg,
                 const thermo::TernarySystem& sys) {
    const Int3 g = bf.globalCells();
    const auto seeds = makeSeeds(g, cfg, solidFractions(cfg, sys));
    const Vec2 muE = sys.muEut();

    Field<double>& phi = b.phiSrc;
    Field<double>& mu = b.muSrc;
    const CellInterval all = phi.withGhosts();
    const int nx = all.xMax - all.xMin + 1;
    const std::vector<Column> cols =
        columnTable(seeds, g, bf.periodic(), b.origin.x + all.xMin,
                    b.origin.y + all.yMin, nx, all.yMax - all.yMin + 1);

    forEachCell(all, [&](int x, int y, int z) {
        const double gz = static_cast<double>(b.origin.z + z) + 0.5;
        double p[N];
        cellPhi(cols[static_cast<std::size_t>((y - all.yMin) * nx +
                                              (x - all.xMin))],
                liquidFraction(gz, cfg.fillHeight), p);
        for (int a = 0; a < N; ++a) phi(x, y, z, a) = p[a];
        mu(x, y, z, 0) = muE.x;
        mu(x, y, z, 1) = muE.y;
    });

    b.phiDst.copyFrom(b.phiSrc);
    b.muDst.copyFrom(b.muSrc);
}

std::vector<RegionStats> voronoiPlaneRegions(Int3 globalCells,
                                             std::array<bool, 3> periodic,
                                             const VoronoiConfig& cfg,
                                             const thermo::TernarySystem& sys) {
    const Int3 g = globalCells;
    const std::vector<Column> cols =
        columnTable(makeSeeds(g, cfg, solidFractions(cfg, sys)), g, periodic,
                    0, 0, g.x, g.y);
    // Planes with the same liquid fraction classify alike: below and above
    // the front, one classification serves every plane.
    std::vector<RegionStats> planes(static_cast<std::size_t>(g.z));
    double lastLiq = -1.0;
    RegionStats last;
    for (int z = 0; z < g.z; ++z) {
        const double liq =
            liquidFraction(static_cast<double>(z) + 0.5, cfg.fillHeight);
        if (liq != lastLiq) {
            last = {};
            for (const Column& c : cols) {
                double p[N];
                cellPhi(c, liq, p);
                switch (classifyPhi(p)) {
                    case CellRegion::BulkSolid: ++last.bulkSolid; break;
                    case CellRegion::BulkLiquid: ++last.bulkLiquid; break;
                    case CellRegion::Interface: ++last.interface; break;
                    case CellRegion::Front: ++last.front; break;
                }
            }
            lastLiq = liq;
        }
        planes[static_cast<std::size_t>(z)] = last;
    }
    return planes;
}

} // namespace tpf::core
