/// Tests for the microstructure analysis module: fractions/profiles,
/// two-point correlation + PCA, lamella labeling and split/merge tracking.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "analysis/correlation.h"
#include "analysis/fractions.h"
#include "analysis/lamellae.h"
#include "core/regions.h"
#include "core/voronoi.h"
#include "thermo/agalcu.h"

namespace tpf::analysis {
namespace {

using core::LIQ;
using core::N;

/// Build a lamellar block: phase stripes along x of the given width, solid
/// up to zFront, liquid above.
core::SimBlock makeLamellar(int stripe, Int3 size = {36, 36, 24},
                            int zFront = 16) {
    core::SimBlock b(size);
    Field<double>& phi = b.phiSrc;
    forEachCell(phi.withGhosts(), [&](int x, int y, int z) {
        (void)y;
        for (int a = 0; a < N; ++a) phi(x, y, z, a) = 0.0;
        if (z >= zFront) {
            phi(x, y, z, LIQ) = 1.0;
        } else {
            const int xi = ((x % size.x) + size.x) % size.x;
            phi(x, y, z, (xi / stripe) % 3) = 1.0;
        }
    });
    return b;
}

TEST(Fractions, GlobalAndProfile) {
    auto b = makeLamellar(12, {36, 36, 24}, 12);
    const auto f = phaseFractions(b.phiSrc);
    EXPECT_NEAR(f[LIQ], 0.5, 1e-12); // half the height is liquid
    EXPECT_NEAR(f[0] + f[1] + f[2], 0.5, 1e-12);
    EXPECT_NEAR(f[0], f[1], 1e-12); // equal stripes

    const auto prof = zProfile(b.phiSrc);
    ASSERT_EQ(prof.size(), 24u);
    EXPECT_NEAR(prof[0][LIQ], 0.0, 1e-12);
    EXPECT_NEAR(prof[20][LIQ], 1.0, 1e-12);
}

TEST(Fractions, SolidSlabNormalization) {
    auto b = makeLamellar(12, {36, 36, 24}, 12);
    const auto sf = solidFractionsInSlab(b.phiSrc, 0, 11);
    EXPECT_NEAR(sf[0], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(sf[1], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(sf[2], 1.0 / 3.0, 1e-12);
}

TEST(Fractions, FrontDetection) {
    auto b = makeLamellar(12, {36, 36, 24}, 10);
    EXPECT_EQ(frontZ(b.phiSrc), 9);
}

TEST(Correlation, S2StartsAtFractionAndOscillatesWithStripePeriod) {
    auto b = makeLamellar(12); // period 36 in x, each phase 12 wide
    const auto s2 = twoPointCorrelation(b.phiSrc, 0, 0, 36, 2, 10);

    EXPECT_NEAR(s2[0], 1.0 / 3.0, 1e-12); // S2(0) = phase fraction
    // Full period: S2(36) = S2(0) for the exactly periodic stripes.
    EXPECT_NEAR(s2[36], s2[0], 1e-12);
    // Anti-phase at half period: stripes of width 12 with period 36 do not
    // overlap themselves at shift 18.
    EXPECT_LT(s2[18], 0.1);
}

TEST(Correlation, SpacingEstimateFindsThePeriod) {
    auto b = makeLamellar(8, {48, 48, 16}, 16); // period 24
    const auto s2 = twoPointCorrelation(b.phiSrc, 1, 0, 30, 2, 10);
    const double spacing = lamellarSpacingEstimate(s2);
    EXPECT_NEAR(spacing, 24.0, 2.0);
}

TEST(Correlation, YAxisSeesNoStructureForXStripes) {
    auto b = makeLamellar(12);
    const auto s2 = twoPointCorrelation(b.phiSrc, 0, 1, 16, 2, 10);
    // Stripes are uniform along y: S2 is flat at the fraction value.
    for (double v : s2) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(Correlation, PcaDetectsLamellarAnisotropyAndOrientation) {
    auto b = makeLamellar(12);
    const int maxShift = 12;
    const auto map = correlationMap2D(b.phiSrc, 0, 4, maxShift);
    const auto pca = correlationPca(map, maxShift);

    // Correlation extends along y (stripe direction) and is short along x.
    EXPECT_GT(pca.lambdaMajor, pca.lambdaMinor);
    EXPECT_LT(pca.anisotropy(), 0.6);
    EXPECT_NEAR(std::abs(pca.axisMajor.y), 1.0, 1e-6)
        << "major axis must align with the stripes";
}

TEST(Correlation, PcaIsIsotropicForCheckerboardBlobs) {
    core::SimBlock b({32, 32, 8});
    Field<double>& phi = b.phiSrc;
    forEachCell(phi.withGhosts(), [&](int x, int y, int z) {
        for (int a = 0; a < N; ++a) phi(x, y, z, a) = 0.0;
        const bool in = ((x / 4) + (y / 4)) % 2 == 0;
        phi(x, y, z, in ? 0 : LIQ) = 1.0;
        (void)z;
    });
    const auto map = correlationMap2D(phi, 0, 2, 8);
    const auto pca = correlationPca(map, 8);
    EXPECT_GT(pca.anisotropy(), 0.8) << "checkerboard is x/y symmetric";
}

// Byte-loop reference for the bit-packed correlation core: a copy of the
// direct loops the core replaced, with the same normalisation expressions.
int refWrap(int v, int n) { return ((v % n) + n) % n; }

void refPlaneHits(const unsigned char* ind, int nx, int ny, int axis,
                  int maxShift, std::vector<long long>& hits) {
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            if (!ind[static_cast<std::size_t>(y) * nx + x]) continue;
            for (int r = 0; r <= maxShift; ++r) {
                const int xs = axis == 0 ? refWrap(x + r, nx) : x;
                const int ys = axis == 1 ? refWrap(y + r, ny) : y;
                if (ind[static_cast<std::size_t>(ys) * nx + xs])
                    ++hits[static_cast<std::size_t>(r)];
            }
        }
    }
}

std::vector<double> refS2(const unsigned char* ind, int nx, int ny, int axis,
                          int maxShift) {
    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    refPlaneHits(ind, nx, ny, axis, maxShift, hits);
    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny);
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

std::vector<double> refMap(const unsigned char* ind, int nx, int ny,
                           int maxShift) {
    const int side = 2 * maxShift + 1;
    std::vector<double> map(static_cast<std::size_t>(side) * side, 0.0);
    for (int dy = -maxShift; dy <= maxShift; ++dy) {
        for (int dx = -maxShift; dx <= maxShift; ++dx) {
            long long hits = 0;
            for (int y = 0; y < ny; ++y) {
                const int ys = refWrap(y + dy, ny);
                for (int x = 0; x < nx; ++x) {
                    const int xs = refWrap(x + dx, nx);
                    hits += ind[static_cast<std::size_t>(y) * nx + x] &
                            ind[static_cast<std::size_t>(ys) * nx + xs];
                }
            }
            map[static_cast<std::size_t>(dy + maxShift) * side +
                (dx + maxShift)] =
                static_cast<double>(hits) / (static_cast<double>(nx) * ny);
        }
    }
    return map;
}

bool sameBytes(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CorrelationPacked, MatchesByteLoopsBitForBit) {
    // Widths around the 64-bit word edges, ny != nx, and lags past nx so
    // that they wrap more than once along x (and many times along y).
    const std::vector<std::pair<int, int>> shapes{
        {1, 5}, {3, 7}, {63, 4}, {64, 3}, {65, 6}, {96, 2}, {130, 3}};
    std::mt19937 rng(20151115);
    for (const auto& [nx, ny] : shapes) {
        const int maxShift = nx <= 65 ? 2 * nx + 1 : nx + 1;
        std::vector<std::vector<unsigned char>> planes;
        for (const double density : {0.5, 0.15}) {
            std::bernoulli_distribution bit(density);
            std::vector<unsigned char> p(static_cast<std::size_t>(nx) * ny);
            for (auto& c : p) c = bit(rng) ? 1 : 0;
            planes.push_back(p);
        }
        planes.emplace_back(static_cast<std::size_t>(nx) * ny, 0);
        planes.emplace_back(static_cast<std::size_t>(nx) * ny, 1);
        for (std::size_t k = 0; k < planes.size(); ++k) {
            SCOPED_TRACE("nx=" + std::to_string(nx) + " ny=" +
                         std::to_string(ny) + " plane " + std::to_string(k));
            const unsigned char* ind = planes[k].data();
            for (int axis = 0; axis < 2; ++axis)
                EXPECT_TRUE(
                    sameBytes(twoPointCorrelationPlane(ind, nx, ny, axis,
                                                       maxShift),
                              refS2(ind, nx, ny, axis, maxShift)))
                    << "S2 axis " << axis;
            EXPECT_TRUE(sameBytes(correlationMap2DPlane(ind, nx, ny, maxShift),
                                  refMap(ind, nx, ny, maxShift)))
                << "correlation map";
        }
    }
}

TEST(CorrelationPacked, FieldWrappersMatchByteLoops) {
    // The field wrappers sum the integer hits over a slab before their one
    // normalisation; compare both against the reference on a random field.
    core::SimBlock b({36, 20, 6});
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    forEachCell(b.phiSrc.withGhosts(), [&](int x, int y, int z) {
        for (int a = 0; a < N; ++a) b.phiSrc(x, y, z, a) = u(rng);
    });
    const int nx = 36, ny = 20, maxShift = 40, z0 = 1, z1 = 4;
    for (int axis = 0; axis < 2; ++axis) {
        std::vector<long long> hits(maxShift + 1, 0);
        for (int z = z0; z <= z1; ++z) {
            const auto ind = indicatorPlane(b.phiSrc, 1, z);
            refPlaneHits(ind.data(), nx, ny, axis, maxShift, hits);
        }
        std::vector<double> ref(hits.size());
        const double inv =
            1.0 / (static_cast<double>(nx) * ny * (z1 - z0 + 1));
        for (std::size_t r = 0; r < hits.size(); ++r)
            ref[r] = static_cast<double>(hits[r]) * inv;
        EXPECT_TRUE(sameBytes(
            twoPointCorrelation(b.phiSrc, 1, axis, maxShift, z0, z1), ref))
            << "S2 axis " << axis;
    }
    const auto ind = indicatorPlane(b.phiSrc, 1, 2);
    EXPECT_TRUE(sameBytes(correlationMap2D(b.phiSrc, 1, 2, 25),
                          refMap(ind.data(), nx, ny, 25)));
}

TEST(Lamellae, CountsStripesPerSlice) {
    auto b = makeLamellar(12, {36, 36, 24}, 16);
    const auto labels = labelSlice(b.phiSrc, 0, 4);
    EXPECT_EQ(labels.count, 1) << "one stripe of phase 0 per period";
    const auto st = analyzeLamellae(b.phiSrc, 0, 0, 15);
    for (int c : st.countPerSlice) EXPECT_EQ(c, 1);
    EXPECT_EQ(st.splits, 0);
    EXPECT_EQ(st.merges, 0);
}

TEST(Lamellae, PeriodicWrappingJoinsComponents) {
    core::SimBlock b({16, 16, 4});
    Field<double>& phi = b.phiSrc;
    forEachCell(phi.withGhosts(), [&](int x, int y, int z) {
        (void)y;
        (void)z;
        for (int a = 0; a < N; ++a) phi(x, y, z, a) = 0.0;
        // Two x-bands touching only across the periodic x boundary.
        const int xi = ((x % 16) + 16) % 16;
        phi(x, y, z, (xi < 3 || xi >= 13) ? 0 : LIQ) = 1.0;
    });
    EXPECT_EQ(labelSlice(phi, 0, 0).count, 1)
        << "wrapped band must be one component";
}

TEST(Lamellae, DetectsSplitAndMergeAlongZ) {
    core::SimBlock b({24, 24, 6});
    Field<double>& phi = b.phiSrc;
    forEachCell(phi.withGhosts(), [&](int x, int y, int z) {
        (void)y;
        for (int a = 0; a < N; ++a) phi(x, y, z, a) = 0.0;
        bool in;
        const int xi = ((x % 24) + 24) % 24;
        if (z < 2)
            in = xi >= 4 && xi < 20; // one wide bar
        else if (z < 4)
            in = (xi >= 4 && xi < 10) || (xi >= 14 && xi < 20); // two bars
        else
            in = xi >= 4 && xi < 20; // merged again
        phi(x, y, z, in ? 1 : LIQ) = 1.0;
    });
    const auto st = analyzeLamellae(phi, 1, 0, 5);
    EXPECT_EQ(st.countPerSlice[0], 1);
    EXPECT_EQ(st.countPerSlice[2], 2);
    EXPECT_EQ(st.countPerSlice[5], 1);
    EXPECT_GE(st.splits, 1);
    EXPECT_GE(st.merges, 1);
}

// --- edge-case properties of the labeling/spacing primitives -------------
// (these feed the in-situ observer pipeline, so degenerate slices must be
// handled, not asserted away)

/// Build an indicator plane from a lambda.
template <typename Fn>
std::vector<unsigned char> makePlane(int nx, int ny, Fn in) {
    std::vector<unsigned char> ind(static_cast<std::size_t>(nx) * ny, 0);
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            ind[static_cast<std::size_t>(y) * nx + x] = in(x, y) ? 1 : 0;
    return ind;
}

TEST(LamellaeEdgeCases, EmptySliceHasNoComponents) {
    const auto ind = makePlane(8, 8, [](int, int) { return false; });
    const auto labels = labelPlane(ind.data(), 8, 8);
    EXPECT_EQ(labels.count, 0);
    for (int l : labels.label) EXPECT_EQ(l, -1);
}

TEST(LamellaeEdgeCases, FullSliceIsOneComponent) {
    const auto ind = makePlane(8, 8, [](int, int) { return true; });
    const auto labels = labelPlane(ind.data(), 8, 8);
    EXPECT_EQ(labels.count, 1);
    for (int l : labels.label) EXPECT_EQ(l, 0);
}

TEST(LamellaeEdgeCases, SingleCellComponents) {
    // Isolated cells, including one at the corner whose periodic neighbors
    // are empty: each is its own component.
    const auto ind = makePlane(9, 9, [](int x, int y) {
        return (x == 0 && y == 0) || (x == 4 && y == 4) || (x == 7 && y == 2);
    });
    const auto labels = labelPlane(ind.data(), 9, 9);
    EXPECT_EQ(labels.count, 3);
}

TEST(LamellaeEdgeCases, StripeWrappingBothPeriodicEdges) {
    // A cross of one x-row and one y-column, each closing on itself through
    // the periodic boundary in *both* directions: one component, even
    // though the scan meets it in four disconnected-looking pieces.
    const auto ind =
        makePlane(10, 10, [](int x, int y) { return x == 0 || y == 0; });
    const auto labels = labelPlane(ind.data(), 10, 10);
    EXPECT_EQ(labels.count, 1);
}

TEST(LamellaeEdgeCases, SingleSliceStackHasNoTransitions) {
    std::vector<std::vector<unsigned char>> planes{
        makePlane(6, 6, [](int x, int) { return x < 3; })};
    const auto st = analyzeLamellaePlanes(planes, 6, 6);
    ASSERT_EQ(st.countPerSlice.size(), 1u);
    EXPECT_EQ(st.countPerSlice[0], 1);
    EXPECT_EQ(st.splits + st.merges + st.appears + st.vanishes, 0);
}

TEST(LamellaeEdgeCases, EmptyStackYieldsZeroStats) {
    const auto st = analyzeLamellaePlanes({}, 6, 6);
    EXPECT_TRUE(st.countPerSlice.empty());
    EXPECT_EQ(st.splits + st.merges + st.appears + st.vanishes, 0);
}

TEST(LamellaeEdgeCases, AppearAndVanishBetweenEmptyAndFullSlices) {
    std::vector<std::vector<unsigned char>> planes{
        makePlane(6, 6, [](int, int) { return false; }),
        makePlane(6, 6, [](int x, int) { return x < 2; }), // appears
        makePlane(6, 6, [](int, int) { return false; }),   // vanishes
    };
    const auto st = analyzeLamellaePlanes(planes, 6, 6);
    EXPECT_EQ(st.appears, 1);
    EXPECT_EQ(st.vanishes, 1);
    EXPECT_EQ(st.splits, 0);
    EXPECT_EQ(st.merges, 0);
}

TEST(SpacingEstimate, MonotoneAndConstantProfilesHaveNoEstimate) {
    // The header contract: 0 means "no estimate", returned for profiles
    // that never complete the descend-then-ascend pattern.
    EXPECT_EQ(lamellarSpacingEstimate({0.5, 0.4, 0.3, 0.2, 0.1}), 0.0);
    EXPECT_EQ(lamellarSpacingEstimate({0.1, 0.2, 0.3, 0.4, 0.5}), 0.0);
    EXPECT_EQ(lamellarSpacingEstimate({0.3, 0.3, 0.3, 0.3, 0.3}), 0.0);
    EXPECT_EQ(lamellarSpacingEstimate({}), 0.0);
    EXPECT_EQ(lamellarSpacingEstimate({0.5}), 0.0);
    EXPECT_EQ(lamellarSpacingEstimate({0.5, 0.2}), 0.0);
}

TEST(SpacingEstimate, FindsTheFirstMaximumAfterTheFirstMinimum) {
    // Clean oscillation: minimum at r=2, next maximum at r=4.
    EXPECT_EQ(lamellarSpacingEstimate({0.5, 0.3, 0.1, 0.3, 0.5, 0.3}), 4.0);
    // Descend ending at the tail (maximum only at the boundary): no
    // *interior* maximum, still an estimate of the ascent's end? No — the
    // ascent must terminate before the end to count as a maximum.
    EXPECT_EQ(lamellarSpacingEstimate({0.5, 0.3, 0.1, 0.3, 0.5}), 0.0);
}

TEST(LamellaeEdgeCases, FieldWrappersMatchPlaneCore) {
    // labelSlice/analyzeLamellae are thin wrappers over the plane core; a
    // stripe block must give identical answers through both entries.
    auto b = makeLamellar(12, {36, 36, 8}, 8);
    const auto viaField = labelSlice(b.phiSrc, 0, 3);
    std::vector<unsigned char> ind(36 * 36);
    for (int y = 0; y < 36; ++y)
        for (int x = 0; x < 36; ++x)
            ind[static_cast<std::size_t>(y) * 36 + x] =
                b.phiSrc(x, y, 3, 0) > 0.5 ? 1 : 0;
    const auto viaPlane = labelPlane(ind.data(), 36, 36);
    EXPECT_EQ(viaField.count, viaPlane.count);
    EXPECT_EQ(viaField.label, viaPlane.label);
}

TEST(Lamellae, RealSimulationHasThreePhaseLamellae) {
    // Voronoi-initialized solid region: each solid phase forms a plausible
    // number of lamellae (not 0, not the whole plane).
    const auto sys = thermo::makeAgAlCu();
    core::SimBlock b({48, 48, 16});
    auto bf = BlockForest::createUniform({48, 48, 16}, {48, 48, 16},
                                         {true, true, false}, 1);
    core::VoronoiConfig cfg;
    cfg.fillHeight = 12;
    core::initVoronoi(b, bf, cfg, sys);

    for (int phase = 0; phase < 3; ++phase) {
        const auto labels = labelSlice(b.phiSrc, phase, 2);
        EXPECT_GE(labels.count, 1) << "phase " << phase;
        EXPECT_LE(labels.count, 40);
    }
}

} // namespace
} // namespace tpf::analysis
