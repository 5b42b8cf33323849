#pragma once
/// \file reduction.h
/// Hierarchical, mesh-based output data reduction (paper §3.2): every rank
/// extracts + pre-coarsens its local surface mesh; then in log2(P) rounds
/// pairs of ranks gather, stitch (weld) and re-coarsen the stitched region
/// until the full mesh sits on rank 0. Block-boundary vertices are pinned
/// during local coarsening so the stitching step finds matching borders.

#include "io/mesh.h"
#include "io/simplify.h"
#include "vmpi/comm.h"

namespace tpf::io {

struct ReductionOptions {
    /// Per-round coarsening budget (triangles kept after each stitch).
    std::size_t maxTriangles = 50000;
    /// Weld tolerance for stitching (fraction of a cell).
    double weldTol = 1e-6;
    /// Maximum quadric error allowed during coarsening (default: rely on the
    /// triangle budget).
    double maxError = 1e300;
};

/// Serialize / deserialize for the gather messages. appendSerializedMesh
/// writes the serializeMesh() bytes onto the end of \p out, and
/// serializedMeshBytes is their count; the pointer overload of
/// deserializeMesh parses one record inside a larger blob.
std::vector<std::byte> serializeMesh(const TriMesh& m);
std::size_t serializedMeshBytes(const TriMesh& m);
void appendSerializedMesh(const TriMesh& m, std::vector<std::byte>& out);
TriMesh deserializeMesh(const std::vector<std::byte>& buf);
TriMesh deserializeMesh(const std::byte* data, std::size_t bytes);

/// Coarsen \p mesh while pinning vertices on the given axis-aligned boundary
/// planes (block/rank boundaries): x = planesX[i], etc.
void coarsenPreservingPlanes(TriMesh& mesh, const ReductionOptions& opt,
                             const std::vector<double>& planesX,
                             const std::vector<double>& planesY,
                             const std::vector<double>& planesZ);

/// Hierarchical pairwise reduction over all ranks of \p comm. Every rank
/// passes its (already locally coarsened) mesh; rank 0 returns the stitched,
/// coarsened global mesh, all others an empty mesh. Runs log2(P) rounds where
/// "in each step only half of the processes take part". Serial (comm null or
/// single rank) returns the input coarsened.
TriMesh reduceMeshHierarchical(TriMesh local, vmpi::Comm* comm,
                               const ReductionOptions& opt);

} // namespace tpf::io
