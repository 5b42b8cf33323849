#pragma once
/// \file simplify.h
/// Quadric-error edge-collapse mesh simplification (Garland & Heckbert 1997,
/// the algorithm the paper uses through VCG): the marching extractor emits
/// triangles with edge lengths of order dx, "unnecessarily fine", which this
/// pass coarsens adaptively before writing or hierarchical gathering.
///
/// Boundary preservation mirrors the paper's hierarchical scheme: "assigning
/// a high weight to all vertices that are located on block boundaries, the
/// boundaries are preserved such that the later stitching step can work
/// correctly" — pass a lock predicate / weight for such vertices.

#include <functional>

#include "io/mesh.h"

namespace tpf::io {

struct SimplifyOptions {
    /// Stop when at most this many triangles remain (0: rely on maxError).
    std::size_t targetTriangles = 0;
    /// Do not perform collapses whose quadric error exceeds this bound.
    double maxError = 1e300;
    /// Weight of the perpendicular constraint planes added on open-boundary
    /// edges (keeps mesh borders in place).
    double openBoundaryWeight = 100.0;
    /// Predicate marking vertices to pin exactly (no collapse touches them);
    /// may be empty.
    std::function<bool(const Vec3&)> lockedVertex;
    /// Also pin every vertex on an open-boundary edge (an edge used by one
    /// triangle): the borders a later stitching weld must find intact.
    bool lockOpenBoundary = false;
};

/// Simplify \p mesh in place. Returns the number of collapses performed.
std::size_t simplifyMesh(TriMesh& mesh, const SimplifyOptions& opt);

} // namespace tpf::io
