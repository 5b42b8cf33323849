#include "io/mesh_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

#include "core/slab_sweep.h"
#include "io/marching_cubes.h"
#include "io/reduction.h"
#include "io/simplify.h"
#include "perf/perf.h"
#include "util/assert.h"

namespace tpf::io {

namespace {

/// One canonical extraction chunk: a kSlabHeight z-slab of one local slab,
/// for one component.
struct ChunkRef {
    const Field<double>* field = nullptr;
    Int3 origin;    ///< global origin of the owning slab
    int lz0 = 0;    ///< local z of the chunk's first cube plane
    int lz1 = 0;    ///< local z one past the chunk's last cube plane
    int gz0 = 0;    ///< global z of the chunk (the canonical sort key)
    int part = 0;   ///< index into the component list
    TriMesh mesh;
    double extractSec = 0.0;  ///< busy time of this chunk's extraction
    double simplifySec = 0.0; ///< busy time of this chunk's simplification
};

/// Record framing inside the gathered blob: component index, global chunk z
/// and payload size, then the serializeMesh() bytes. Trivially copyable,
/// 8-byte fields.
struct ChunkHeader {
    std::int64_t part = 0;
    std::int64_t gz0 = 0;
    std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ChunkHeader>);

/// fn(i) for i in [0, n) over \p pool (nullptr or one thread: in order).
void fanOut(util::ThreadPool* pool, std::size_t n,
            const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr && pool->threads() > 1 && n > 1) {
        pool->parallelFor(static_cast<int>(n),
                          [&](int i) { fn(static_cast<std::size_t>(i)); });
    } else {
        for (std::size_t i = 0; i < n; ++i) fn(i);
    }
}

} // namespace

std::vector<TriMesh> stitchIsoSurface(const std::vector<MeshLocalSlab>& slabs,
                                      const std::vector<int>& components,
                                      vmpi::Comm* comm,
                                      const MeshPipelineOptions& opt,
                                      MeshPipelineTimings* timings) {
    // Canonical chunking: every slab interior splits into the same fixed
    // kSlabHeight z-slabs the kernel sweeps use. The partition is a function
    // of the interval alone, so with block z-splits aligned to the slab grid
    // the chunk set — and every chunk's input — is identical in any
    // ranks x threads decomposition.
    // Components vary fastest, so the pool starts on the bottom chunks of
    // every component first — where the solid, and with it most of the
    // surface, sits — and the cheap chunks fill in the tail of the fan-out.
    std::vector<ChunkRef> chunks;
    for (const MeshLocalSlab& s : slabs) {
        TPF_ASSERT(s.field != nullptr && s.field->ghost() >= 1,
                   "mesh pipeline slabs need a field with a ghost layer");
        const CellInterval interior{0, 0, 0, s.field->nx() - 1,
                                    s.field->ny() - 1, s.field->nz() - 1};
        for (const CellInterval& c : core::slabPartition(interior)) {
            for (std::size_t k = 0; k < components.size(); ++k) {
                ChunkRef r;
                r.field = s.field;
                r.origin = s.origin;
                r.lz0 = c.zMin;
                r.lz1 = c.zMax + 1;
                r.gz0 = s.origin.z + c.zMin;
                r.part = static_cast<int>(k);
                chunks.push_back(std::move(r));
            }
        }
    }

    // Stages 1 + 2, one fan-out over every component x chunk: extraction
    // (lateral self-wrap + z ghosts, welded), then the in-situ data
    // reduction. The chunk's open-boundary vertices — chunk interfaces and
    // domain borders — are locked, so the interfaces survive bit-exactly for
    // the stitching weld (the paper's high-weight boundary preservation).
    double t0 = perf::now();
    fanOut(opt.pool, chunks.size(), [&](std::size_t i) {
        ChunkRef& c = chunks[i];
        const double start = perf::now();
        c.mesh = extractIsoSurfaceWrapXY(
            *c.field, components[static_cast<std::size_t>(c.part)], opt.iso,
            Vec3{static_cast<double>(c.origin.x),
                 static_cast<double>(c.origin.y),
                 static_cast<double>(c.origin.z)},
            c.lz0, c.lz1);
        const double extracted = perf::now();
        c.extractSec = extracted - start;
        if (opt.reduceTarget >= 1.0 || c.mesh.empty()) return;
        SimplifyOptions so;
        so.targetTriangles = static_cast<std::size_t>(
            std::ceil(std::max(0.0, opt.reduceTarget) *
                      static_cast<double>(c.mesh.numTriangles())));
        so.maxError = opt.maxError;
        so.lockOpenBoundary = true;
        simplifyMesh(c.mesh, so);
        c.simplifySec = perf::now() - extracted;
    });
    if (timings != nullptr) {
        const double wall = perf::now() - t0;
        double extractBusy = 0.0, simplifyBusy = 0.0;
        for (const ChunkRef& c : chunks) {
            extractBusy += c.extractSec;
            simplifyBusy += c.simplifySec;
        }
        const double busy = extractBusy + simplifyBusy;
        const double extractShare = busy > 0.0 ? extractBusy / busy : 1.0;
        timings->extractSec += wall * extractShare;
        timings->simplifySec += wall * (1.0 - extractShare);
    }

    // Stage 3: serialize in (component, ascending global-z) order, one
    // rank-ordered gather for all components, canonical stitch on root.
    t0 = perf::now();
    std::stable_sort(chunks.begin(), chunks.end(),
                     [](const ChunkRef& a, const ChunkRef& b) {
                         return a.part != b.part ? a.part < b.part
                                                 : a.gz0 < b.gz0;
                     });
    std::vector<std::byte> blob;
    for (const ChunkRef& c : chunks) {
        const std::vector<std::byte> payload = serializeMesh(c.mesh);
        ChunkHeader h;
        h.part = c.part;
        h.gz0 = c.gz0;
        h.bytes = payload.size();
        const std::size_t at = blob.size();
        blob.resize(at + sizeof h + payload.size());
        std::memcpy(blob.data() + at, &h, sizeof h);
        std::memcpy(blob.data() + at + sizeof h, payload.data(),
                    payload.size());
    }
    chunks.clear();

    std::vector<TriMesh> stitched(components.size());
    std::vector<std::vector<std::byte>> perRank;
    if (comm != nullptr && comm->size() > 1) {
        perRank = comm->gatherAllBytes(blob);
        if (!comm->isRoot()) {
            if (timings != nullptr) timings->gatherSec += perf::now() - t0;
            return stitched;
        }
    } else {
        perRank.push_back(std::move(blob));
    }

    // Parse every rank's records and append each component's chunks in
    // ascending global-z order. Chunk z keys are unique per component
    // (z-only decomposition), so the sort makes the triangle stream
    // independent of which rank produced which chunk.
    std::vector<std::vector<std::pair<std::int64_t, TriMesh>>> parts(
        components.size());
    for (const std::vector<std::byte>& rankBlob : perRank) {
        std::size_t at = 0;
        while (at < rankBlob.size()) {
            TPF_ASSERT(at + sizeof(ChunkHeader) <= rankBlob.size(),
                       "truncated mesh chunk header");
            ChunkHeader h;
            std::memcpy(&h, rankBlob.data() + at, sizeof h);
            at += sizeof h;
            TPF_ASSERT(h.part >= 0 &&
                           static_cast<std::size_t>(h.part) < parts.size(),
                       "mesh chunk component out of range");
            TPF_ASSERT(at + h.bytes <= rankBlob.size(),
                       "truncated mesh chunk payload");
            std::vector<std::byte> payload(
                rankBlob.begin() + static_cast<std::ptrdiff_t>(at),
                rankBlob.begin() + static_cast<std::ptrdiff_t>(at + h.bytes));
            at += h.bytes;
            parts[static_cast<std::size_t>(h.part)].emplace_back(
                h.gz0, deserializeMesh(payload));
        }
    }
    fanOut(opt.pool, parts.size(), [&](std::size_t k) {
        auto& list = parts[k];
        std::stable_sort(list.begin(), list.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        for (auto& [gz0, part] : list) stitched[k].append(part);
        stitched[k].weldVertices(opt.weldTol); // the final boundary weld
    });
    if (timings != nullptr) timings->gatherSec += perf::now() - t0;
    return stitched;
}

std::vector<TriMesh> extractGlobalPhaseSurface(
    const std::vector<std::unique_ptr<core::SimBlock>>& blocks,
    const BlockForest& bf, vmpi::Comm* comm, const std::vector<int>& phases,
    const MeshPipelineOptions& opt, MeshPipelineTimings* timings) {
    TPF_ASSERT(bf.blockGrid().x == 1 && bf.blockGrid().y == 1,
               "the in-situ mesh pipeline needs the z-slab decomposition "
               "(blocks spanning the full periodic x/y extent)");
    std::vector<MeshLocalSlab> slabs;
    slabs.reserve(blocks.size());
    for (const auto& b : blocks)
        slabs.push_back(MeshLocalSlab{&b->phiSrc, b->origin});
    return stitchIsoSurface(slabs, phases, comm, opt, timings);
}

} // namespace tpf::io
