#include "io/reduction.h"

#include <cmath>
#include <cstring>

#include "util/assert.h"

namespace tpf::io {

std::size_t serializedMeshBytes(const TriMesh& m) {
    return 2 * sizeof(std::size_t) + m.vertices.size() * sizeof(Vec3) +
           m.triangles.size() * sizeof(std::array<int, 3>);
}

void appendSerializedMesh(const TriMesh& m, std::vector<std::byte>& out) {
    const std::size_t nv = m.vertices.size();
    const std::size_t nt = m.triangles.size();
    const std::size_t at = out.size();
    out.resize(at + serializedMeshBytes(m));
    std::byte* p = out.data() + at;
    std::memcpy(p, &nv, sizeof(nv));
    p += sizeof(nv);
    std::memcpy(p, &nt, sizeof(nt));
    p += sizeof(nt);
    // An empty vector's data() may be null, which memcpy must not see even
    // for zero bytes (empty chunks are serialized on every frame).
    if (nv > 0) std::memcpy(p, m.vertices.data(), nv * sizeof(Vec3));
    p += nv * sizeof(Vec3);
    if (nt > 0)
        std::memcpy(p, m.triangles.data(), nt * sizeof(std::array<int, 3>));
}

std::vector<std::byte> serializeMesh(const TriMesh& m) {
    std::vector<std::byte> buf;
    appendSerializedMesh(m, buf);
    return buf;
}

TriMesh deserializeMesh(const std::byte* data, std::size_t bytes) {
    TriMesh m;
    TPF_ASSERT(bytes >= 2 * sizeof(std::size_t), "mesh message too short");
    const std::byte* p = data;
    std::size_t nv = 0, nt = 0;
    std::memcpy(&nv, p, sizeof(nv));
    p += sizeof(nv);
    std::memcpy(&nt, p, sizeof(nt));
    p += sizeof(nt);
    TPF_ASSERT(bytes == 2 * sizeof(std::size_t) + nv * sizeof(Vec3) +
                            nt * sizeof(std::array<int, 3>),
               "mesh message size mismatch");
    m.vertices.resize(nv);
    m.triangles.resize(nt);
    if (nv > 0) std::memcpy(m.vertices.data(), p, nv * sizeof(Vec3));
    p += nv * sizeof(Vec3);
    if (nt > 0)
        std::memcpy(m.triangles.data(), p, nt * sizeof(std::array<int, 3>));
    return m;
}

TriMesh deserializeMesh(const std::vector<std::byte>& buf) {
    return deserializeMesh(buf.data(), buf.size());
}

void coarsenPreservingPlanes(TriMesh& mesh, const ReductionOptions& opt,
                             const std::vector<double>& planesX,
                             const std::vector<double>& planesY,
                             const std::vector<double>& planesZ) {
    if (mesh.numTriangles() <= opt.maxTriangles) return;
    SimplifyOptions so;
    so.targetTriangles = opt.maxTriangles;
    so.maxError = opt.maxError;
    so.lockedVertex = [&](const Vec3& v) {
        const double tol = 1e-6;
        for (double x : planesX)
            if (std::abs(v.x - x) < tol) return true;
        for (double y : planesY)
            if (std::abs(v.y - y) < tol) return true;
        for (double z : planesZ)
            if (std::abs(v.z - z) < tol) return true;
        return false;
    };
    simplifyMesh(mesh, so);
}

TriMesh reduceMeshHierarchical(TriMesh local, vmpi::Comm* comm,
                               const ReductionOptions& opt) {
    // Intermediate rounds lock the open-boundary vertices so the remaining
    // stitching steps still find matching borders — the role of the paper's
    // "high weight to all vertices that are located on block boundaries".
    auto coarsen = [&](TriMesh& m, bool lockBoundaries) {
        if (m.numTriangles() <= opt.maxTriangles) return;
        SimplifyOptions so;
        so.targetTriangles = opt.maxTriangles;
        so.maxError = opt.maxError;
        so.lockOpenBoundary = lockBoundaries;
        simplifyMesh(m, so);
    };

    if (comm == nullptr || comm->size() == 1) {
        local.weldVertices(opt.weldTol);
        coarsen(local, /*lockBoundaries=*/false);
        return local;
    }

    constexpr int tagMesh = 7001;
    const int rank = comm->rank();
    const int size = comm->size();

    // log2(P) pairwise rounds; in round k ranks with bit k set send to their
    // partner rank - 2^k and drop out ("in each step only half of the
    // processes take part in the reduction").
    bool active = true;
    for (int stride = 1; stride < size; stride *= 2) {
        if (!active) continue;
        if ((rank & stride) != 0) {
            // Pre-coarsen before shipping, keeping the borders intact.
            coarsen(local, /*lockBoundaries=*/true);
            const auto buf = serializeMesh(local);
            comm->send(rank - stride, tagMesh, buf.data(), buf.size());
            local = TriMesh{};
            active = false;
        } else if (rank + stride < size) {
            std::vector<std::byte> buf;
            comm->recv(rank + stride, tagMesh, buf);
            const TriMesh incoming = deserializeMesh(buf);
            local.append(incoming);
            // Stitch the shared border, then coarsen the stitched region.
            local.weldVertices(opt.weldTol);
            const bool moreRounds = 2 * stride < size;
            coarsen(local, /*lockBoundaries=*/moreRounds);
        }
    }
    return local;
}

} // namespace tpf::io
