#pragma once
/// \file mesh_pipeline.h
/// In-situ, rank-parallel iso-surface extraction: the paper's I/O-reduction
/// pipeline (§3.2: per-block extraction → boundary-locked simplification →
/// stitching on one rank) executed *during* the run on the live phi fields
/// instead of offline on a dumped volume.
///
/// Determinism contract (enforced by ctest `mesh_rank_invariance`, argued in
/// docs/MESH.md): the stitched meshes are bitwise identical across
/// ranks x threads x transport decompositions. The unit of work is a *chunk*
/// — one component's kSlabHeight z-slab of the global cube lattice —
/// extracted, welded and simplified independently of every other chunk:
///  - a cube belongs to the block holding its lower corner; its +1 corners
///    read the z ghost plane (exchanged) and wrap laterally (the z-slab
///    decomposition spans the periodic x/y extent), so every global cube is
///    marched exactly once with identical inputs in any decomposition;
///  - per-chunk simplification locks the chunk's open-boundary vertices
///    (the paper's high-weight boundary trick), so chunk interfaces survive
///    bit-exactly for the final weld;
///  - chunk simplification is a pure function of the raw chunk mesh, so
///    the rank that simplifies a chunk never changes its bytes;
///  - root appends each component's gathered chunks in ascending global-z
///    order — an explicit sort, so the order is independent of which rank
///    simplified which chunk — and runs one final boundary weld per
///    component.
/// The work spreads over every rank, not just the ones holding surface:
///  1. every rank extracts its own chunks (one fan-out over its pool);
///  2. the ranks exchange one descriptor list each — (component, global z,
///     raw triangle count, owner) per non-empty chunk;
///  3. every rank computes the same longest-processing-time plan: chunks
///     largest first, ties by (component, global z), each to the least-
///     loaded rank, ties to the lowest rank;
///  4. owners ship the raw chunks they do not keep to their assignees, and
///     every rank simplifies its assigned chunks, largest first, over its
///     pool (both exchanges are vmpi::Comm::alltoallBytes);
///  5. one rank-ordered gather and root's per-component stitches (a second
///     fan-out) finish the frame.
/// Results land in preallocated slots, so the thread count never changes
/// the output. Bitwise invariance across *rank counts* additionally needs
/// the block z-splits aligned to the kSlabHeight grid (true for every
/// production z-slab split with nz % 8 == 0 per rank).

#include <memory>
#include <vector>

#include "core/sim_block.h"
#include "grid/block_forest.h"
#include "io/mesh.h"
#include "util/thread_pool.h"
#include "vmpi/comm.h"

namespace tpf::io {

struct MeshPipelineOptions {
    double iso = 0.5;
    /// Per-chunk in-situ data reduction: simplify each chunk down to
    /// ceil(reduceTarget * chunk triangles) with its open boundary locked.
    /// 1.0 (or anything >= 1) disables simplification.
    double reduceTarget = 0.25;
    /// Chunk fan-out pool (nullptr: serial). Never changes the result.
    util::ThreadPool* pool = nullptr;
};

/// Wall-clock seconds per pipeline stage, accumulated over calls:
/// extraction and simplification are the walls of their two fan-outs on
/// this rank; gather is the rest of the call (the descriptor exchange, the
/// chunk shipping, serialization, the gather and the root-side stitch).
struct MeshPipelineTimings {
    double extractSec = 0.0;
    double simplifySec = 0.0;
    double gatherSec = 0.0;
};

/// One rank-local z-slab of the global field (cell-centered, ghost >= 1,
/// lateral extent == the global extent).
struct MeshLocalSlab {
    const Field<double>* field = nullptr;
    Int3 origin; ///< global cell coordinates of the slab's first interior cell
};

/// Collective: extract the global iso-surface of every component in
/// \p components from the rank-local slabs, simplify each chunk in situ on
/// the rank the plan assigns it to, gather rank-ordered (one gather for all
/// components) and stitch on root.
/// Returns one stitched mesh per component, in \p components order, on root
/// (empty meshes elsewhere). Every rank must pass its own slabs and the same
/// components and options.
std::vector<TriMesh> stitchIsoSurface(const std::vector<MeshLocalSlab>& slabs,
                                      const std::vector<int>& components,
                                      vmpi::Comm* comm,
                                      const MeshPipelineOptions& opt,
                                      MeshPipelineTimings* timings = nullptr);

/// Convenience wrapper over a solver's local blocks: the phase surfaces
/// (phi_phase == opt.iso) of \p phases of the z-slab-decomposed forest.
/// Asserts the decomposition is z-only (blockGrid x = y = 1).
std::vector<TriMesh> extractGlobalPhaseSurface(
    const std::vector<std::unique_ptr<core::SimBlock>>& blocks,
    const BlockForest& bf, vmpi::Comm* comm, const std::vector<int>& phases,
    const MeshPipelineOptions& opt, MeshPipelineTimings* timings = nullptr);

} // namespace tpf::io
