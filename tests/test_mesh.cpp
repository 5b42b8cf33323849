/// Tests for the surface-mesh pipeline: iso-surface extraction (geometry,
/// watertightness, block stitching), quadric simplification (error bounds,
/// boundary preservation) and the hierarchical reduction over ranks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/exchange.h"
#include "core/solver.h"
#include "io/collapse_heap.h"
#include "io/marching_cubes.h"
#include "io/mc_tables.h"
#include "io/mesh_pipeline.h"
#include "io/reduction.h"
#include "io/simplify.h"
#include "io/writers.h"
#include "util/thread_pool.h"
#include "vmpi/comm.h"

namespace tpf::io {
namespace {

/// Fill component \p c of \p f (including ghosts) with a signed sphere field:
/// value 1 inside radius r around center, 0 outside, smooth across ~2 cells.
void fillSphere(Field<double>& f, int c, Vec3 center, double r, Vec3 origin) {
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        const Vec3 p{origin.x + x + 0.5, origin.y + y + 0.5, origin.z + z + 0.5};
        const double d = (p - center).norm() - r;
        f(x, y, z, c) = 1.0 / (1.0 + std::exp(2.0 * d));
    });
}

TEST(IsoSurface, SphereIsClosedWithEulerCharacteristic2) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 8.0, {0, 0, 0});

    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 100u);
    EXPECT_TRUE(m.isClosed()) << "sphere surface must be watertight";
    EXPECT_EQ(m.eulerCharacteristic(), 2) << "sphere has genus 0";
}

TEST(IsoSurface, SphereAreaMatchesAnalytic) {
    Field<double> f(40, 40, 40, 1, 1, Layout::fzyx);
    const double r = 10.0;
    fillSphere(f, 0, {20, 20, 20}, r, {0, 0, 0});

    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    const double analytic = 4.0 * M_PI * r * r;
    EXPECT_NEAR(m.totalArea(), analytic, 0.05 * analytic);
}

TEST(IsoSurface, VerticesLieOnTheIsoSurface) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    const double r = 9.0;
    fillSphere(f, 0, {16, 16, 16}, r, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    for (const Vec3& v : m.vertices) {
        const double d = (v - Vec3{16, 16, 16}).norm();
        EXPECT_NEAR(d, r, 0.6) << "vertex far from the analytic surface";
    }
}

TEST(IsoSurface, EmptyFieldProducesEmptyMesh) {
    Field<double> f(8, 8, 8, 1, 1, Layout::fzyx);
    f.fill(0.0);
    EXPECT_TRUE(extractIsoSurface(f, 0, 0.5, {0, 0, 0}).empty());
    f.fill(1.0);
    EXPECT_TRUE(extractIsoSurface(f, 0, 0.5, {0, 0, 0}).empty());
}

TEST(IsoSurface, PerBlockExtractionStitchesToClosedSurface) {
    // The same sphere extracted from two half-domain blocks (with correct
    // ghost values) must stitch into one watertight mesh — the property the
    // per-block ghost extension exists for.
    const Vec3 center{16, 16, 16};
    const double r = 9.0;

    Field<double> lower(32, 32, 16, 1, 1, Layout::fzyx);
    Field<double> upper(32, 32, 16, 1, 1, Layout::fzyx);
    fillSphere(lower, 0, center, r, {0, 0, 0});
    fillSphere(upper, 0, center, r, {0, 0, 16});

    TriMesh a = extractIsoSurface(lower, 0, 0.5, {0, 0, 0});
    TriMesh b = extractIsoSurface(upper, 0, 0.5, {0, 0, 16});
    EXPECT_FALSE(a.isClosed()) << "half-sphere has an open rim";

    a.append(b);
    a.weldVertices(1e-6);
    EXPECT_TRUE(a.isClosed()) << "stitched halves must be watertight";
    EXPECT_EQ(a.eulerCharacteristic(), 2);
}

TEST(IsoSurface, SphereTrianglesAreOrientedOutward) {
    // Regression for the orientation reference point: the ni == 1 tet case
    // must use the lone *inside* corner (not blend it with the outside
    // corners), otherwise a fraction of the sphere's triangles flip inward.
    const Vec3 center{16, 16, 16};
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, center, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 1000u);

    for (const auto& t : m.triangles) {
        const Vec3& a = m.vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = m.vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = m.vertices[static_cast<std::size_t>(t[2])];
        const Vec3 n = (b - a).cross(c - a);
        const Vec3 centroid = (a + b + c) * (1.0 / 3.0);
        // On a convex surface every outward normal points away from the
        // center; a single flipped triangle fails here.
        ASSERT_GT(n.dot(centroid - center), 0.0)
            << "inward-facing triangle on a sphere";
    }
}

TEST(IsoSurface, ExactIsoHitsProduceNoDegenerateTriangles) {
    // Cell values that hit the iso value exactly put edge points bitwise on
    // cell centers; the tetrahedra around such a corner emit zero-area
    // triangles that must be skipped at emit time (not left to the weld).
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    int snapped = 0;
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        if (std::abs(f(x, y, z, 0) - 0.5) < 0.15) {
            f(x, y, z, 0) = 0.5;
            ++snapped;
        }
    });
    ASSERT_GT(snapped, 100) << "fixture must exercise exact iso hits";

    const TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 1000u);
    for (const auto& t : m.triangles) {
        const Vec3& a = m.vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = m.vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = m.vertices[static_cast<std::size_t>(t[2])];
        ASSERT_GT((b - a).cross(c - a).norm(), 0.0)
            << "zero-area triangle emitted on exact iso hit";
    }
    EXPECT_TRUE(m.isClosed()) << "exact-hit surface must stay watertight";
    EXPECT_EQ(m.eulerCharacteristic(), 2);
}

TEST(IsoSurface, ThreadPoolDoesNotChangeTheMesh) {
    // The slab fan-out appends per-slab parts in slab order, so the extracted
    // mesh is bitwise independent of the worker count.
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});

    const TriMesh serial = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    util::ThreadPool pool(4);
    const TriMesh threaded = extractIsoSurface(f, 0, 0.5, {0, 0, 0}, &pool);

    ASSERT_EQ(threaded.numVertices(), serial.numVertices());
    ASSERT_EQ(threaded.numTriangles(), serial.numTriangles());
    EXPECT_EQ(threaded.triangles, serial.triangles);
    for (std::size_t i = 0; i < serial.vertices.size(); ++i) {
        EXPECT_EQ(threaded.vertices[i].x, serial.vertices[i].x);
        EXPECT_EQ(threaded.vertices[i].y, serial.vertices[i].y);
        EXPECT_EQ(threaded.vertices[i].z, serial.vertices[i].z);
    }
}

// --- edge-shared extraction vertices against the raw-soup path ---

namespace soup {

// The extraction as it was before edge-shared vertices: every tetrahedron
// emits three fresh vertices per triangle, and one 1e-7 weld merges the
// soup. Kept here as the oracle the shared-vertex extraction must
// reproduce byte for byte.

Vec3 edgePoint(Vec3 pa, double va, Vec3 pb, double vb, double iso) {
    const double denom = vb - va;
    const double t = (std::abs(denom) < 1e-300) ? 0.5 : (iso - va) / denom;
    return pa + (pb - pa) * t;
}

void emitTriangle(TriMesh& m, Vec3 a, Vec3 b, Vec3 c, Vec3 insidePoint) {
    const Vec3 n = (b - a).cross(c - a);
    if (!(n.dot(n) > 0.0)) return;
    const Vec3 centroid = (a + b + c) * (1.0 / 3.0);
    if (n.dot(insidePoint - centroid) > 0.0) std::swap(b, c);
    const int base = static_cast<int>(m.vertices.size());
    m.vertices.push_back(a);
    m.vertices.push_back(b);
    m.vertices.push_back(c);
    m.triangles.push_back({base, base + 1, base + 2});
}

void marchTet(TriMesh& m, const Vec3 p[4], const double v[4], double iso) {
    int inside[4], outside[4];
    int ni = 0, no = 0;
    for (int i = 0; i < 4; ++i) {
        if (v[i] >= iso)
            inside[ni++] = i;
        else
            outside[no++] = i;
    }
    if (ni == 0 || ni == 4) return;
    if (ni == 1 || ni == 3) {
        const int lone = (ni == 1) ? inside[0] : outside[0];
        const int* o = (ni == 1) ? outside : inside;
        const Vec3 a = edgePoint(p[lone], v[lone], p[o[0]], v[o[0]], iso);
        const Vec3 b = edgePoint(p[lone], v[lone], p[o[1]], v[o[1]], iso);
        const Vec3 c = edgePoint(p[lone], v[lone], p[o[2]], v[o[2]], iso);
        const Vec3 insidePt =
            (ni == 1) ? p[lone] : (p[o[0]] + p[o[1]] + p[o[2]]) * (1.0 / 3.0);
        emitTriangle(m, a, b, c, insidePt);
    } else {
        const int i0 = inside[0], i1 = inside[1];
        const int o0 = outside[0], o1 = outside[1];
        const Vec3 q00 = edgePoint(p[i0], v[i0], p[o0], v[o0], iso);
        const Vec3 q01 = edgePoint(p[i0], v[i0], p[o1], v[o1], iso);
        const Vec3 q10 = edgePoint(p[i1], v[i1], p[o0], v[o0], iso);
        const Vec3 q11 = edgePoint(p[i1], v[i1], p[o1], v[o1], iso);
        emitTriangle(m, q00, q01, q11, p[i0]);
        emitTriangle(m, q00, q11, q10, p[i1]);
    }
}

TriMesh extract(const Field<double>& f, int comp, double iso, Vec3 origin,
                int z0, int z1, bool wrapXY) {
    TriMesh m;
    const int nx = f.nx(), ny = f.ny();
    for (int z = z0; z < z1; ++z) {
        for (int y = 0; y < ny; ++y) {
            for (int x = 0; x < nx; ++x) {
                double cv[8];
                Vec3 cp[8];
                for (int c = 0; c < 8; ++c) {
                    const auto& o = kCubeCorner[static_cast<std::size_t>(c)];
                    int rx = x + o[0], ry = y + o[1];
                    if (wrapXY) {
                        rx %= nx;
                        ry %= ny;
                    }
                    cv[c] = f(rx, ry, z + o[2], comp);
                    cp[c] = Vec3{origin.x + x + o[0] + 0.5,
                                 origin.y + y + o[1] + 0.5,
                                 origin.z + z + o[2] + 0.5};
                }
                for (const auto& tet : kCubeTets) {
                    const Vec3 tp[4] = {cp[tet[0]], cp[tet[1]], cp[tet[2]],
                                        cp[tet[3]]};
                    const double tv[4] = {cv[tet[0]], cv[tet[1]], cv[tet[2]],
                                          cv[tet[3]]};
                    marchTet(m, tp, tv, iso);
                }
            }
        }
    }
    m.weldVertices(1e-7);
    return m;
}

} // namespace soup

TEST(IsoSurface, KuhnTetEdgesJoinACornerToASupersetCorner) {
    // The premise of the edge-shared vertex table: every tet edge is named
    // by its lower corner and the corner delta.
    for (const auto& tet : kCubeTets)
        for (int i = 0; i < 4; ++i)
            for (int j = i + 1; j < 4; ++j) {
                const int a = tet[static_cast<std::size_t>(i)];
                const int b = tet[static_cast<std::size_t>(j)];
                EXPECT_TRUE((a & b) == a || (a & b) == b)
                    << "tet edge " << a << "-" << b;
            }
}

/// Both extraction entry points against the raw-soup oracle, bytewise.
void expectSoupIdentical(const Field<double>& f, int comp, Vec3 origin) {
    const TriMesh wrapped = extractIsoSurfaceWrapXY(f, comp, 0.5, origin, 0,
                                                    f.nz());
    ASSERT_GT(wrapped.numTriangles(), 0u);
    EXPECT_TRUE(serializeMesh(wrapped) ==
                serializeMesh(soup::extract(f, comp, 0.5, origin, 0, f.nz(),
                                            /*wrapXY=*/true)))
        << "wrapped extraction differs from the raw-soup path";
    EXPECT_TRUE(serializeMesh(extractIsoSurface(f, comp, 0.5, origin)) ==
                serializeMesh(soup::extract(f, comp, 0.5, origin, 0, f.nz(),
                                            /*wrapXY=*/false)))
        << "ghost-read extraction differs from the raw-soup path";
}

TEST(IsoSurface, SharedEdgeVerticesMatchRawSoupWithExactIsoHits) {
    Field<double> f(24, 24, 24, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {12, 12, 12}, 7.0, {0, 0, 0});
    int snapped = 0;
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        if (std::abs(f(x, y, z, 0) - 0.5) < 0.15) {
            f(x, y, z, 0) = 0.5;
            ++snapped;
        }
    });
    ASSERT_GT(snapped, 100) << "fixture must exercise exact iso hits";
    expectSoupIdentical(f, 0, {0, 0, 0});
}

TEST(IsoSurface, SharedEdgeVerticesMatchRawSoupAcrossTheWrapColumn) {
    // A periodic sphere centred on the domain corner: its surface crosses
    // the x/y wrap column, where the wrapped cube reads x/y = 0 but its
    // vertices sit at the unwrapped x/y = n + 0.5.
    const int n = 16;
    Field<double> f(n, n, n, 1, 1, Layout::fzyx);
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        const auto periodic = [&](double d) {
            d = std::fmod(std::abs(d), static_cast<double>(n));
            return std::min(d, n - d);
        };
        const Vec3 d{periodic(x + 0.5), periodic(y + 0.5), z + 0.5 - 8.0};
        f(x, y, z, 0) = 1.0 / (1.0 + std::exp(2.0 * (d.norm() - 5.0)));
    });
    expectSoupIdentical(f, 0, {0, 0, 3});
    const TriMesh m = extractIsoSurfaceWrapXY(f, 0, 0.5, {0, 0, 3}, 0, n);
    const auto [lo, hi] = m.boundingBox();
    EXPECT_GT(hi.x, n) << "fixture must cross the x wrap column";
    EXPECT_GT(hi.y, n) << "fixture must cross the y wrap column";
}

TEST(IsoSurface, SharedEdgeVerticesMatchRawSoupOnASolidifyBlock) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 32};
    core::Solver solver(cfg, nullptr);
    solver.initialize();
    solver.run(4);
    const core::SimBlock& blk = *solver.localBlocks().front();
    const Vec3 origin{static_cast<double>(blk.origin.x),
                      static_cast<double>(blk.origin.y),
                      static_cast<double>(blk.origin.z)};
    for (int phase = 0; phase < 3; ++phase) {
        SCOPED_TRACE("phase " + std::to_string(phase));
        expectSoupIdentical(blk.phiSrc, phase, origin);
    }
}

// --- collapse heap ---

TEST(CollapseHeap, TiedPopOrderIsPinned) {
    // 40 pushes with errors cycling 0, 2, 1 and a pop after every third
    // push, then a drain. The tie order is the sift sequence of libstdc++'s
    // push_heap/pop_heap, hard-coded so that no standard library can move it.
    CollapseHeap heap;
    std::vector<int> order;
    for (int i = 0; i < 40; ++i) {
        heap.push(CollapseEntry{static_cast<double>((i * 5) % 3), i, 0, 0, 0});
        if (i % 3 == 2) {
            order.push_back(heap.top().v1);
            heap.pop();
        }
    }
    while (!heap.empty()) {
        order.push_back(heap.top().v1);
        heap.pop();
    }
    const std::vector<int> expected{
        0,  3,  6,  9,  12, 15, 18, 21, 24, 27, 30, 33, 36, 39,
        35, 38, 26, 20, 14, 32, 5,  29, 17, 8,  11, 2,  23, 13,
        16, 1,  7,  19, 37, 34, 28, 10, 22, 31, 4,  25};
    EXPECT_EQ(order, expected);
}

TEST(Mesh, WeldMergesDuplicates) {
    TriMesh m;
    m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                  {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
    m.triangles = {{0, 1, 2}, {3, 5, 4}};
    m.weldVertices(1e-9);
    EXPECT_EQ(m.numVertices(), 4u);
    EXPECT_EQ(m.numTriangles(), 2u);
}

TEST(Mesh, WeldDropsDegenerateTriangles) {
    TriMesh m;
    m.vertices = {{0, 0, 0}, {1e-12, 0, 0}, {0, 1, 0}};
    m.triangles = {{0, 1, 2}};
    m.weldVertices(1e-6);
    EXPECT_EQ(m.numTriangles(), 0u);
}

TEST(Mesh, WeldMergesAcrossQuantizationBinBoundary) {
    // Two copies of a vertex 0.4*tol apart that quantize into *different*
    // bins (they straddle a bin edge at 0.5*tol): the 27-neighbor probe must
    // still weld them. A single-bin hash lookup misses this pair and leaves
    // a crack along the block seam.
    const double tol = 1e-6;
    TriMesh m;
    m.vertices = {{0.3 * tol, 0.0, 0.0}, {1, 0, 0}, {0, 1, 0},
                  {0.7 * tol, 0.0, 0.0}, {1, 0, 0}, {0, -1, 0}};
    m.triangles = {{0, 1, 2}, {3, 4, 5}};
    m.weldVertices(tol);

    EXPECT_EQ(m.numVertices(), 4u);
    EXPECT_EQ(m.numTriangles(), 2u);
    // First-insertion order: the kept representative is the earliest copy.
    EXPECT_EQ(m.vertices[0].x, 0.3 * tol);
    EXPECT_EQ(m.triangles[1][0], 0);
}

TEST(Mesh, SortedEdgeQueriesOnOpenAndClosedSurfaces) {
    // A tetrahedron (closed) and the same tetrahedron minus one face (open,
    // the missing face's three edges become the rim), plus an unused
    // vertex that the Euler count must ignore.
    TriMesh closed;
    closed.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {5, 5, 5}};
    closed.triangles = {{0, 2, 1}, {0, 1, 3}, {1, 2, 3}, {0, 3, 2}};
    EXPECT_TRUE(closed.isClosed());
    EXPECT_EQ(closed.eulerCharacteristic(), 2);

    TriMesh open = closed;
    open.triangles.erase(open.triangles.begin() + 2); // drop {1, 2, 3}
    EXPECT_FALSE(open.isClosed());
    EXPECT_EQ(open.eulerCharacteristic(), 1); // a disc

    // Uses come sorted by (key, slot): one run per edge, first occurrence
    // (smallest face * 3 + e) first.
    const std::vector<EdgeUse> uses = sortedEdgeUses(open);
    ASSERT_EQ(uses.size(), 9u);
    for (std::size_t i = 1; i < uses.size(); ++i)
        EXPECT_TRUE(uses[i - 1].key < uses[i].key ||
                    (uses[i - 1].key == uses[i].key &&
                     uses[i - 1].slot < uses[i].slot));
    EXPECT_EQ(uses.front().key, (0ULL << 32) | 1ULL); // edge 0-1
    EXPECT_EQ(uses.front().slot, 2);                  // face 0, edge 2 -> 0
    EXPECT_EQ(uses.back().key, (2ULL << 32) | 3ULL);
    EXPECT_FALSE(TriMesh{}.isClosed());
}

TEST(Mesh, ObjRoundTripIsBitwiseExact) {
    // writeObj emits %.17g coordinates, so read-back reconstructs every
    // double exactly — the property the rank-invariance OBJ byte comparison
    // and checkpoint-restart frame rewrites rely on.
    Field<double> f(24, 24, 24, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {12, 12, 12}, 7.0, {0, 0, 0});
    const TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 100u);

    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() /
                          ("tpf_mesh_objrt_" + std::to_string(::getpid()) +
                           ".obj");
    writeObj(path.string(), m);
    const TriMesh back = readObj(path.string());
    fs::remove(path);

    ASSERT_EQ(back.numVertices(), m.numVertices());
    ASSERT_EQ(back.numTriangles(), m.numTriangles());
    EXPECT_EQ(back.triangles, m.triangles);
    for (std::size_t i = 0; i < m.vertices.size(); ++i) {
        EXPECT_EQ(back.vertices[i].x, m.vertices[i].x);
        EXPECT_EQ(back.vertices[i].y, m.vertices[i].y);
        EXPECT_EQ(back.vertices[i].z, m.vertices[i].z);
    }
}

// --- simplification ---

TEST(Simplify, ReachesTargetTriangleCount) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    const std::size_t before = m.numTriangles();
    ASSERT_GT(before, 1000u);

    SimplifyOptions opt;
    opt.targetTriangles = 300;
    simplifyMesh(m, opt);
    EXPECT_LE(m.numTriangles(), 320u);
    EXPECT_GT(m.numTriangles(), 50u);
}

TEST(Simplify, CoarsenedSphereStaysOnTheSphere) {
    Field<double> f(40, 40, 40, 1, 1, Layout::fzyx);
    const double r = 11.0;
    fillSphere(f, 0, {20, 20, 20}, r, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});

    SimplifyOptions opt;
    opt.targetTriangles = 400;
    simplifyMesh(m, opt);

    // Quadric-optimal placement keeps vertices near the original surface,
    // and the area must be approximately preserved.
    for (const Vec3& v : m.vertices)
        EXPECT_NEAR((v - Vec3{20, 20, 20}).norm(), r, 1.0);
    EXPECT_NEAR(m.totalArea(), 4.0 * M_PI * r * r, 0.10 * 4.0 * M_PI * r * r);
}

TEST(Simplify, ClosedSurfaceStaysClosed) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    SimplifyOptions opt;
    opt.targetTriangles = 500;
    simplifyMesh(m, opt);
    EXPECT_TRUE(m.isClosed());
    EXPECT_EQ(m.eulerCharacteristic(), 2);
}

TEST(Simplify, LockedVerticesStayPut) {
    // Half-sphere extracted from one block; vertices on the block boundary
    // plane z = 16.5 are locked (the hierarchical scheme's high weight).
    Field<double> lower(32, 32, 16, 1, 1, Layout::fzyx);
    fillSphere(lower, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(lower, 0, 0.5, {0, 0, 0});

    // Record boundary vertices (on the top ghost plane of the block).
    const double boundaryZ = 16.5;
    std::vector<Vec3> boundaryBefore;
    for (const Vec3& v : m.vertices)
        if (std::abs(v.z - boundaryZ) < 1e-6) boundaryBefore.push_back(v);
    ASSERT_GT(boundaryBefore.size(), 10u);

    SimplifyOptions opt;
    opt.targetTriangles = m.numTriangles() / 6;
    opt.lockedVertex = [&](const Vec3& v) {
        return std::abs(v.z - boundaryZ) < 1e-6;
    };
    simplifyMesh(m, opt);

    // Every original boundary vertex position must still exist.
    std::size_t found = 0;
    for (const Vec3& b : boundaryBefore)
        for (const Vec3& v : m.vertices)
            if ((v - b).norm() < 1e-6) {
                ++found;
                break;
            }
    EXPECT_EQ(found, boundaryBefore.size())
        << "locked boundary vertices must survive simplification";
}

TEST(Simplify, MaxErrorBoundStopsEarly) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    const std::size_t before = m.numTriangles();

    SimplifyOptions opt;
    opt.targetTriangles = 1;     // no count limit in practice
    opt.maxError = 1e-9;         // but an extremely tight error bound
    simplifyMesh(m, opt);
    // Only near-zero-error collapses (coplanar patches) are allowed.
    EXPECT_GT(m.numTriangles(), before / 3);
}

// --- serialization + hierarchical reduction ---

TEST(Reduction, MeshSerializationRoundTrip) {
    Field<double> f(16, 16, 16, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {8, 8, 8}, 5.0, {0, 0, 0});
    const TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});

    const TriMesh back = deserializeMesh(serializeMesh(m));
    ASSERT_EQ(back.numVertices(), m.numVertices());
    ASSERT_EQ(back.numTriangles(), m.numTriangles());
    EXPECT_EQ(back.triangles, m.triangles);
    for (std::size_t i = 0; i < m.vertices.size(); ++i)
        EXPECT_EQ(back.vertices[i].x, m.vertices[i].x);
}

TEST(Reduction, HierarchicalGatherProducesClosedCoarsenedSphere) {
    // Four ranks each own a z-slab of a sphere; the log2(P) reduction must
    // deliver one closed, coarsened surface on rank 0.
    const Vec3 center{16, 16, 16};
    const double r = 10.0;

    TriMesh result;
    vmpi::runParallel(4, [&](vmpi::Comm& comm) {
        const int zBase = 8 * comm.rank();
        Field<double> f(32, 32, 8, 1, 1, Layout::fzyx);
        fillSphere(f, 0, center, r, {0, 0, static_cast<double>(zBase)});
        TriMesh local =
            extractIsoSurface(f, 0, 0.5, {0, 0, static_cast<double>(zBase)});

        ReductionOptions opt;
        opt.maxTriangles = 600;
        TriMesh reduced = reduceMeshHierarchical(std::move(local), &comm, opt);
        if (comm.isRoot())
            result = std::move(reduced);
        else
            EXPECT_TRUE(reduced.empty());
    });

    ASSERT_FALSE(result.empty());
    EXPECT_LE(result.numTriangles(), 620u);
    EXPECT_TRUE(result.isClosed());
    EXPECT_EQ(result.eulerCharacteristic(), 2);
    EXPECT_NEAR(result.totalArea(), 4.0 * M_PI * r * r,
                0.15 * 4.0 * M_PI * r * r);
}

TEST(Reduction, SerialPathJustWeldsAndCoarsens) {
    Field<double> f(24, 24, 24, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {12, 12, 12}, 7.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ReductionOptions opt;
    opt.maxTriangles = 200;
    const TriMesh out = reduceMeshHierarchical(std::move(m), nullptr, opt);
    EXPECT_LE(out.numTriangles(), 220u);
    EXPECT_TRUE(out.isClosed());
}

// --- in-situ stitching pipeline ---

namespace {

/// Run the stitching pipeline over a 32^3 sphere split into \p ranks z-slabs
/// and return root's stitched mesh (serial path when ranks == 1 and
/// threads == 0 is requested via pool == nullptr).
TriMesh stitchSphere(int ranks, int threads, double reduceTarget) {
    const Vec3 center{16, 16, 16};
    const double r = 10.0;
    TriMesh result;
    const auto body = [&](vmpi::Comm* comm) {
        const int rank = comm != nullptr ? comm->rank() : 0;
        const int nz = 32 / ranks;
        const int zBase = nz * rank;
        Field<double> f(32, 32, nz, 1, 1, Layout::fzyx);
        fillSphere(f, 0, center, r, {0, 0, static_cast<double>(zBase)});

        MeshPipelineOptions opt;
        opt.reduceTarget = reduceTarget;
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 1) {
            pool = std::make_unique<util::ThreadPool>(threads);
            opt.pool = pool.get();
        }
        const std::vector<MeshLocalSlab> slabs{
            MeshLocalSlab{&f, Int3{0, 0, zBase}}};
        TriMesh stitched =
            std::move(stitchIsoSurface(slabs, {0}, comm, opt).front());
        if (comm == nullptr || comm->isRoot())
            result = std::move(stitched);
        else
            EXPECT_TRUE(stitched.empty());
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
    return result;
}

} // namespace

TEST(MeshPipeline, StitchedSphereIsClosedWithAccurateArea) {
    // The paper's acceptance property: closed surface, chi = 2, area within
    // 2% of 4*pi*r^2 — both for the raw stitched extraction and after the
    // in-situ boundary-locked simplification, serial and for every rank
    // count whose z-splits align with the canonical chunk grid.
    const double analytic = 4.0 * M_PI * 10.0 * 10.0;
    for (const int ranks : {1, 2, 4}) {
        for (const double reduce : {1.0, 0.25}) {
            const TriMesh m = stitchSphere(ranks, 1, reduce);
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " reduce=" + std::to_string(reduce));
            ASSERT_GT(m.numTriangles(), 100u);
            EXPECT_TRUE(m.isClosed());
            EXPECT_EQ(m.eulerCharacteristic(), 2);
            EXPECT_NEAR(m.totalArea(), analytic, 0.02 * analytic);
            if (reduce < 1.0) {
                EXPECT_LT(m.numTriangles(),
                          stitchSphere(ranks, 1, 1.0).numTriangles() / 2);
            }
        }
    }
}

TEST(MeshPipeline, StitchedMeshIsBitwiseRankAndThreadInvariant) {
    // The determinism contract of mesh_pipeline.h at unit level: the same
    // serialized bytes out of every ranks x threads decomposition.
    const std::vector<std::byte> reference =
        serializeMesh(stitchSphere(1, 1, 0.25));
    ASSERT_FALSE(reference.empty());
    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            if (ranks == 1 && threads == 1) continue;
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            EXPECT_TRUE(serializeMesh(stitchSphere(ranks, threads, 0.25)) ==
                        reference)
                << "stitched mesh bytes depend on the decomposition";
        }
    }
}

TEST(MeshPipeline, SurfaceOnOneNonRootRankMatchesTheSingleRankMesh) {
    // Uneven ownership: a 32x32x64 box in four 16-plane z-slabs, with the
    // surface of both components inside rank 2's slab and spanning both of
    // its chunks. The plan ships rank 2's raw chunks to the idle ranks, and
    // the stitched meshes must still equal the single-rank ones bit for bit.
    const auto fill = [](Field<double>& f, double zBase) {
        fillSphere(f, 0, {16, 16, 40}, 6.0, {0, 0, zBase});
        fillSphere(f, 1, {9, 22, 39}, 4.0, {0, 0, zBase});
    };
    MeshPipelineOptions opt; // reduceTarget 0.25

    Field<double> whole(32, 32, 64, 2, 1, Layout::fzyx);
    fill(whole, 0.0);
    const std::vector<TriMesh> reference = stitchIsoSurface(
        {MeshLocalSlab{&whole, Int3{0, 0, 0}}}, {0, 1}, nullptr, opt);
    ASSERT_EQ(reference.size(), 2u);
    for (const TriMesh& m : reference) ASSERT_GT(m.numTriangles(), 50u);

    std::vector<std::vector<std::byte>> split;
    vmpi::runParallel(4, [&](vmpi::Comm& comm) {
        const int zBase = 16 * comm.rank();
        Field<double> f(32, 32, 16, 2, 1, Layout::fzyx);
        fill(f, static_cast<double>(zBase));
        util::ThreadPool pool(4);
        MeshPipelineOptions popt = opt;
        popt.pool = &pool;
        const std::vector<TriMesh> meshes = stitchIsoSurface(
            {MeshLocalSlab{&f, Int3{0, 0, zBase}}}, {0, 1}, &comm, popt);
        if (!comm.isRoot()) return;
        for (const TriMesh& m : meshes) split.push_back(serializeMesh(m));
    });
    ASSERT_EQ(split.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k)
        EXPECT_TRUE(split[k] == serializeMesh(reference[k]))
            << "component " << k << " depends on where its chunks simplify";
}

} // namespace
} // namespace tpf::io
