#include "io/marching_cubes.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/slab_sweep.h"
#include "io/mc_tables.h"
#include "util/assert.h"

namespace tpf::io {

namespace {

/// Interpolated iso-crossing on the edge between corners (pa, va) and
/// (pb, vb); va and vb straddle the iso value. When the iso value hits a
/// corner exactly, t is exactly 0 or 1 and the returned point is bitwise
/// equal to that corner position (cell-center coordinates are exact in
/// double precision), which is what lets emitTriangle detect the collapsed
/// zero-area triangles exactly.
Vec3 edgePoint(Vec3 pa, double va, Vec3 pb, double vb, double iso) {
    const double denom = vb - va;
    const double t = (std::abs(denom) < 1e-300) ? 0.5 : (iso - va) / denom;
    return pa + (pb - pa) * t;
}

/// Vertex index of every crossing lattice edge near the cube layer being
/// marched, so each edge gets one vertex at emit time instead of one per
/// emitting tetrahedron. Every Kuhn tet edge joins a cube corner to a
/// superset corner, so an edge is named by its lower corner and the 3-bit
/// corner delta. Corner coordinates are unwrapped: with the lateral
/// self-wrap the x/y = n column stays a vertex of its own, distinct from
/// x/y = 0, exactly as its position is. Cube layer z only touches lower
/// corners in the planes z and z + 1, so two planes are live at a time.
class EdgeVertexCache {
public:
    EdgeVertexCache(int nx, int ny)
        : rowStride_(static_cast<std::size_t>(nx) + 1),
          planeSize_(rowStride_ * (static_cast<std::size_t>(ny) + 1) * 7) {}

    /// Index in \p m of the vertex on the edge from corner (x, y, z) along
    /// \p delta; the first call for an edge appends \p p as its position.
    int vertex(TriMesh& m, int x, int y, int z, int delta, const Vec3& p) {
        if (slots_.empty()) slots_.assign(2 * planeSize_, -1);
        const int plane = z & 1;
        int& s = slots_[static_cast<std::size_t>(plane) * planeSize_ +
                        (static_cast<std::size_t>(y) * rowStride_ +
                         static_cast<std::size_t>(x)) *
                            7 +
                        static_cast<std::size_t>(delta - 1)];
        if (s < 0) {
            s = static_cast<int>(m.vertices.size());
            m.vertices.push_back(p);
            dirty_[plane] = true;
        }
        return s;
    }

    /// Cube layer \p z is done: corner plane z is never read again, so it is
    /// recycled as plane z + 2.
    void finishLayer(int z) {
        const int plane = z & 1;
        if (!dirty_[plane]) return;
        std::fill_n(slots_.begin() +
                        static_cast<std::ptrdiff_t>(plane * planeSize_),
                    planeSize_, -1);
        dirty_[plane] = false;
    }

private:
    std::size_t rowStride_;
    std::size_t planeSize_;
    std::vector<int> slots_; ///< allocated on the first crossing
    bool dirty_[2] = {false, false};
};

/// One cube being marched: its lower corner, corner positions and values,
/// and where its triangles go.
struct Cube {
    TriMesh& mesh;
    EdgeVertexCache& cache;
    int x, y, z;
    Vec3 p[8];
    double v[8];
    double iso;
};

/// Iso-crossing on the cube edge between corners \p a and \p b.
struct EdgeHit {
    Vec3 p;
    int a, b;
};

EdgeHit crossing(const Cube& c, int a, int b) {
    return {edgePoint(c.p[a], c.v[a], c.p[b], c.v[b], c.iso), a, b};
}

int edgeVertex(Cube& c, const EdgeHit& h) {
    const int lower = (h.a & h.b) == h.a ? h.a : h.b;
    return c.cache.vertex(c.mesh, c.x + (lower & 1), c.y + ((lower >> 1) & 1),
                          c.z + (lower >> 2), h.a ^ h.b, h.p);
}

/// Emit the triangle (a, b, c), oriented so the normal points away from the
/// inside (value >= iso) region represented by \p insidePoint. Triangles with
/// exactly zero area — produced when the iso value hits a tet vertex exactly
/// and two edge points collapse onto it — are skipped at emit time; relying
/// on the post-weld index dedup instead would leave self-edges that break
/// isClosed()/eulerCharacteristic() on exact-hit fields. Area and winding are
/// decided on this tetrahedron's own edge points; the shared edge vertices
/// are looked up afterwards, in winding order.
void emitTriangle(Cube& cube, EdgeHit a, EdgeHit b, EdgeHit c,
                  Vec3 insidePoint) {
    const Vec3 n = (b.p - a.p).cross(c.p - a.p);
    if (!(n.dot(n) > 0.0)) return; // degenerate (or NaN): no surface content
    const Vec3 centroid = (a.p + b.p + c.p) * (1.0 / 3.0);
    if (n.dot(insidePoint - centroid) > 0.0) std::swap(b, c);
    const int ia = edgeVertex(cube, a);
    const int ib = edgeVertex(cube, b);
    const int ic = edgeVertex(cube, c);
    cube.mesh.triangles.push_back({ia, ib, ic});
}

/// March one tetrahedron of \p cube (corner indices \p tet).
void marchTet(Cube& cube, const std::array<int, 4>& tet) {
    int insideMask = 0;
    for (int i = 0; i < 4; ++i)
        if (cube.v[tet[static_cast<std::size_t>(i)]] >= cube.iso)
            insideMask |= 1 << i;
    if (insideMask == 0 || insideMask == 0xF) return;

    int inside[4], outside[4];
    int ni = 0, no = 0;
    for (int i = 0; i < 4; ++i) {
        const int corner = tet[static_cast<std::size_t>(i)];
        if (insideMask & (1 << i))
            inside[ni++] = corner;
        else
            outside[no++] = corner;
    }

    if (ni == 1 || ni == 3) {
        // One triangle separating the lone vertex from the other three.
        const int lone = (ni == 1) ? inside[0] : outside[0];
        const int* others = (ni == 1) ? outside : inside;
        const EdgeHit a = crossing(cube, lone, others[0]);
        const EdgeHit b = crossing(cube, lone, others[1]);
        const EdgeHit c = crossing(cube, lone, others[2]);
        // Inside reference: the lone corner itself when it is the inside one
        // (ni == 1); otherwise the centroid of the three inside corners —
        // using a single inside corner here degenerates when that corner
        // lies exactly on the triangle plane (v == iso), leaving the
        // orientation to the arbitrary tet vertex order.
        const Vec3 insidePt =
            (ni == 1) ? cube.p[lone]
                      : (cube.p[others[0]] + cube.p[others[1]] +
                         cube.p[others[2]]) *
                            (1.0 / 3.0);
        emitTriangle(cube, a, b, c, insidePt);
    } else {
        // 2-2 split: a quad on the four crossing edges, as two triangles.
        const int i0 = inside[0], i1 = inside[1];
        const int o0 = outside[0], o1 = outside[1];
        const EdgeHit q00 = crossing(cube, i0, o0);
        const EdgeHit q01 = crossing(cube, i0, o1);
        const EdgeHit q10 = crossing(cube, i1, o0);
        const EdgeHit q11 = crossing(cube, i1, o1);
        // Quad q00-q01-q11-q10 (opposite corners share no tet edge).
        emitTriangle(cube, q00, q01, q11, cube.p[i0]);
        emitTriangle(cube, q00, q11, q10, cube.p[i1]);
    }
}

/// March every cube whose lower corner z lies in [z0, z1) over the full x/y
/// interior, appending triangles to \p mesh with one vertex per crossing
/// lattice edge (the first emitted position; points of exact iso hits still
/// coincide and are left to the weld). With \p wrapXY the +1 lateral corner
/// reads wrap to x/y = 0 (periodic self-wrap: only the z ghost planes are
/// touched); otherwise they read the +1 ghost layer.
void marchCubeRange(TriMesh& mesh, const Field<double>& field, int component,
                    double iso, Vec3 origin, int z0, int z1, bool wrapXY) {
    const int nx = field.nx(), ny = field.ny();
    EdgeVertexCache cache(nx, ny);
    // Hoisted row pointers: per (y, z) the four corner rows of the cube
    // layer, with the constant x stride of the layout (1 for fzyx, nf for
    // zyxf). The inner loop then classifies each cube with eight strided
    // loads instead of eight full index computations — the classification
    // touches *every* cube, so this is what keeps the in-situ extraction
    // overhead small next to the solver step.
    const std::ptrdiff_t xs =
        field.index(1, 0, 0, component) - field.index(0, 0, 0, component);
    for (int z = z0; z < z1; ++z) {
        for (int y = 0; y < ny; ++y) {
            const int yUp = (wrapXY && y + 1 == ny) ? 0 : y + 1;
            const double* row[4] = {
                field.ptr(0, y, z, component),
                field.ptr(0, yUp, z, component),
                field.ptr(0, y, z + 1, component),
                field.ptr(0, yUp, z + 1, component),
            };
            for (int x = 0; x < nx; ++x) {
                // Cube on the cell centers (x..x+1, y..y+1, z..z+1).
                // Classify the corners first and bail before building any
                // positions: the overwhelming majority of cubes lie entirely
                // on one side of the iso value.
                const std::ptrdiff_t a = x * xs;
                const std::ptrdiff_t b =
                    (wrapXY && x + 1 == nx) ? 0 : (x + 1) * xs;
                // kCubeCorner order: bit0 = +x, bit1 = +y, bit2 = +z.
                const double cv[8] = {row[0][a], row[0][b], row[1][a],
                                      row[1][b], row[2][a], row[2][b],
                                      row[3][a], row[3][b]};
                bool anyIn = false, anyOut = false;
                for (const double v : cv) (v >= iso ? anyIn : anyOut) = true;
                if (!anyIn || !anyOut) continue; // no crossing in this cube

                Cube cube{mesh, cache, x, y, z, {}, {}, iso};
                for (int c = 0; c < 8; ++c) {
                    const auto& o = kCubeCorner[static_cast<std::size_t>(c)];
                    cube.p[c] = Vec3{origin.x + x + o[0] + 0.5,
                                     origin.y + y + o[1] + 0.5,
                                     origin.z + z + o[2] + 0.5};
                    cube.v[c] = cv[c];
                }
                for (const auto& tet : kCubeTets) marchTet(cube, tet);
            }
        }
        cache.finishLayer(z);
    }
}

} // namespace

TriMesh extractIsoSurface(const Field<double>& field, int component, double iso,
                          Vec3 origin, util::ThreadPool* pool) {
    TPF_ASSERT(field.ghost() >= 1,
               "iso-surface extraction reads the +1 ghost layer");

    // Fan out over the same fixed z-slab partition as the kernel sweeps: the
    // partition depends on the interval alone, every slab extracts into its
    // own buffer, and the buffers are appended in slab order — so the
    // triangle stream (and hence the welded mesh) is bitwise independent of
    // the thread count, exactly like the field sweeps (core/slab_sweep.h).
    const CellInterval interior{0, 0, 0, field.nx() - 1, field.ny() - 1,
                                field.nz() - 1};
    const std::vector<CellInterval> slabs = core::slabPartition(interior);
    std::vector<TriMesh> parts(slabs.size());
    const auto extractSlab = [&](int i) {
        const CellInterval& s = slabs[static_cast<std::size_t>(i)];
        marchCubeRange(parts[static_cast<std::size_t>(i)], field, component,
                       iso, origin, s.zMin, s.zMax + 1, /*wrapXY=*/false);
    };
    if (pool != nullptr && pool->threads() > 1 && slabs.size() > 1) {
        pool->parallelFor(static_cast<int>(slabs.size()), extractSlab);
    } else {
        for (std::size_t i = 0; i < slabs.size(); ++i)
            extractSlab(static_cast<int>(i));
    }

    TriMesh mesh;
    for (const TriMesh& part : parts) mesh.append(part);

    // Merge the edge points duplicated between slabs and the coincident
    // points of exact iso hits.
    mesh.weldVertices(1e-7);
    return mesh;
}

TriMesh extractIsoSurface(const Field<double>& field, int component, double iso,
                          Vec3 origin) {
    return extractIsoSurface(field, component, iso, origin, nullptr);
}

TriMesh extractIsoSurfaceWrapXY(const Field<double>& field, int component,
                                double iso, Vec3 origin, int z0, int z1) {
    TPF_ASSERT(field.ghost() >= 1,
               "iso-surface extraction reads the +1 z ghost plane");
    TPF_ASSERT(z0 >= 0 && z1 <= field.nz() && z0 <= z1,
               "cube z range out of the field interior");
    TriMesh mesh;
    marchCubeRange(mesh, field, component, iso, origin, z0, z1,
                   /*wrapXY=*/true);
    mesh.weldVertices(1e-7);
    return mesh;
}

TriMesh extractPhaseSurface(const core::SimBlock& blk, int phase, double iso) {
    return extractIsoSurface(blk.phiSrc, phase, iso,
                             Vec3{static_cast<double>(blk.origin.x),
                                  static_cast<double>(blk.origin.y),
                                  static_cast<double>(blk.origin.z)});
}

} // namespace tpf::io
