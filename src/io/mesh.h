#pragma once
/// \file mesh.h
/// Indexed triangle surface mesh — the result-output data structure of the
/// hierarchical I/O reduction pipeline (paper §3.2: "Instead of writing all
/// values of a cell, we only store the position of the interfaces using a
/// triangle surface mesh").

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/smallmat.h"

namespace tpf::io {

struct TriMesh {
    std::vector<Vec3> vertices;
    std::vector<std::array<int, 3>> triangles;

    std::size_t numVertices() const { return vertices.size(); }
    std::size_t numTriangles() const { return triangles.size(); }
    bool empty() const { return triangles.empty(); }

    /// Append another mesh (indices shifted).
    void append(const TriMesh& o);

    /// Merge vertices closer than \p tol (open-addressing table of quantized
    /// positions), drop degenerate triangles. This is the stitching step for
    /// per-block meshes that share vertices on block boundaries.
    void weldVertices(double tol = 1e-9);

    /// Remove vertices not referenced by any triangle.
    void compactVertices();

    double totalArea() const;

    /// V - E + F over unique undirected edges (2 for a sphere-like surface).
    long long eulerCharacteristic() const;

    /// True if every edge is shared by exactly two triangles (watertight).
    bool isClosed() const;

    /// Approximate storage footprint (used by the I/O reduction benchmark).
    std::size_t memoryBytes() const {
        return vertices.size() * sizeof(Vec3) +
               triangles.size() * sizeof(std::array<int, 3>);
    }

    /// Axis-aligned bounding box; {min, max}. Undefined when empty.
    std::pair<Vec3, Vec3> boundingBox() const;

    /// Per-triangle unit normal (zero for degenerate triangles).
    Vec3 triangleNormal(std::size_t t) const;
};

/// One use of an undirected edge by a triangle: the packed vertex pair
/// (min << 32 | max) and the corner slot face * 3 + e of the use (edge e runs
/// from corner e to corner (e + 1) % 3).
struct EdgeUse {
    std::uint64_t key;
    int slot;
};

/// Every edge use of \p m sorted by (key, slot): the uses of one edge form a
/// run, and the first use of a run is the edge's first occurrence in
/// triangle order. The single edge pass behind the closedness, Euler and
/// open-boundary queries and the decimation's boundary planes and seeding.
std::vector<EdgeUse> sortedEdgeUses(const TriMesh& m);

} // namespace tpf::io
