#include "io/mesh_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <type_traits>
#include <utility>

#include "core/slab_sweep.h"
#include "io/marching_cubes.h"
#include "io/reduction.h"
#include "io/simplify.h"
#include "perf/perf.h"
#include "util/assert.h"

namespace tpf::io {

namespace {

/// Weld tolerance of the final stitching weld.
constexpr double kWeldTol = 1e-7;

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
};

/// Record framing inside the shipped and the gathered blobs: component
/// index, global chunk z and payload size, then the serializeMesh() bytes.
/// Trivially copyable, 8-byte fields.
struct ChunkHeader {
    std::int64_t part = 0;
    std::int64_t gz0 = 0;
    std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ChunkHeader>);

/// What every rank publishes about each of its non-empty raw chunks before
/// the simplification plan is made.
struct ChunkDesc {
    std::int64_t part = 0;
    std::int64_t gz0 = 0;
    std::uint64_t triangles = 0; ///< raw triangle count: the cost estimate
    std::int64_t owner = 0;      ///< the rank that extracted the chunk
};
static_assert(std::is_trivially_copyable_v<ChunkDesc>);

/// Append one (header, serialized mesh) record to \p blob.
void appendRecord(std::vector<std::byte>& blob, std::int64_t part,
                  std::int64_t gz0, const TriMesh& mesh) {
    const std::size_t at = blob.size();
    blob.resize(at + sizeof(ChunkHeader));
    appendSerializedMesh(mesh, blob);
    ChunkHeader h;
    h.part = part;
    h.gz0 = gz0;
    h.bytes = blob.size() - at - sizeof h;
    std::memcpy(blob.data() + at, &h, sizeof h);
}

/// Read the record header at \p at of \p blob and advance \p at past the
/// header; the payload then starts at blob.data() + at.
ChunkHeader readHeader(const std::vector<std::byte>& blob, std::size_t& at) {
    TPF_ASSERT(at + sizeof(ChunkHeader) <= blob.size(),
               "truncated mesh chunk header");
    ChunkHeader h;
    std::memcpy(&h, blob.data() + at, sizeof h);
    at += sizeof h;
    TPF_ASSERT(at + h.bytes <= blob.size(), "truncated mesh chunk payload");
    return h;
}

/// Comm::alltoallBytes, or the identity without a communicator.
std::vector<std::vector<std::byte>>
alltoall(vmpi::Comm* comm, std::vector<std::vector<std::byte>> perDest) {
    if (comm == nullptr) return perDest;
    return comm->alltoallBytes(std::move(perDest));
}

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

/// Steps 2-4 of the pipeline: publish every non-empty raw chunk, plan the
/// simplification over all ranks, ship the raw chunks to their assignees,
/// simplify the assigned ones and append them to \p gatherBlob. Empty
/// chunks stay with their owner. Returns the wall of the simplification
/// fan-out.
double simplifyBalanced(std::vector<ChunkRef>& chunks, vmpi::Comm* comm,
                        const MeshPipelineOptions& opt,
                        std::vector<std::byte>& gatherBlob) {
    const auto nr =
        static_cast<std::size_t>(comm != nullptr ? comm->size() : 1);
    const int me = comm != nullptr ? comm->rank() : 0;

    // Step 2: one descriptor list per rank, to every rank.
    std::vector<ChunkDesc> mine;
    std::vector<ChunkRef*> mineChunks; // the chunk of each descriptor
    for (ChunkRef& c : chunks) {
        if (c.mesh.empty()) {
            appendRecord(gatherBlob, c.part, c.gz0, c.mesh);
            continue;
        }
        mine.push_back(ChunkDesc{c.part, c.gz0, c.mesh.numTriangles(), me});
        mineChunks.push_back(&c);
    }
    std::vector<std::byte> descBytes(mine.size() * sizeof(ChunkDesc));
    if (!mine.empty())
        std::memcpy(descBytes.data(), mine.data(), descBytes.size());
    const std::vector<std::vector<std::byte>> descs =
        alltoall(comm, std::vector<std::vector<std::byte>>(nr, descBytes));

    // Step 3: the longest-processing-time plan, computed identically on
    // every rank: largest chunk first, ties by (component, global z); each
    // goes to the least-loaded rank, ties to the lowest rank.
    std::vector<ChunkDesc> all; // rank order, each rank's chunk order
    std::vector<std::size_t> first(nr); // rank r's first descriptor in all
    for (std::size_t r = 0; r < nr; ++r) {
        first[r] = all.size();
        TPF_ASSERT(descs[r].size() % sizeof(ChunkDesc) == 0,
                   "mesh chunk descriptor list size mismatch");
        all.resize(all.size() + descs[r].size() / sizeof(ChunkDesc));
        if (!descs[r].empty())
            std::memcpy(all.data() + first[r], descs[r].data(),
                        descs[r].size());
    }
    std::vector<std::size_t> order(all.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const ChunkDesc& x = all[a];
        const ChunkDesc& y = all[b];
        if (x.triangles != y.triangles) return x.triangles > y.triangles;
        return x.part != y.part ? x.part < y.part : x.gz0 < y.gz0;
    });
    std::vector<int> assignee(all.size());
    std::vector<std::uint64_t> load(nr, 0);
    for (const std::size_t g : order) {
        const auto r = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        assignee[g] = static_cast<int>(r);
        load[r] += all[g].triangles;
    }

    // Step 4: ship the raw chunks this rank does not keep, in plan order,
    // freeing each once it is serialized (into blobs sized up front, so no
    // blob ever reallocates).
    const auto shipped = [&](std::size_t g) -> TriMesh* {
        if (all[g].owner != me || assignee[g] == me) return nullptr;
        return &mineChunks[g - first[static_cast<std::size_t>(me)]]->mesh;
    };
    std::vector<std::vector<std::byte>> ship(nr);
    std::vector<std::size_t> shipBytes(nr, 0);
    for (const std::size_t g : order)
        if (const TriMesh* m = shipped(g))
            shipBytes[static_cast<std::size_t>(assignee[g])] +=
                sizeof(ChunkHeader) + serializedMeshBytes(*m);
    for (std::size_t r = 0; r < nr; ++r) ship[r].reserve(shipBytes[r]);
    for (const std::size_t g : order) {
        if (TriMesh* m = shipped(g)) {
            appendRecord(ship[static_cast<std::size_t>(assignee[g])],
                         all[g].part, all[g].gz0, *m);
            *m = TriMesh{};
        }
    }
    std::vector<std::vector<std::byte>> received =
        alltoall(comm, std::move(ship));

    // This rank's work list in plan order (largest first): kept chunks
    // simplify in place, received ones are parsed off their sender's blob
    // (which holds them in plan order too) inside the fan-out.
    struct Work {
        const ChunkDesc* desc = nullptr;
        TriMesh* mesh = nullptr;           ///< kept chunk, or &own
        const std::byte* raw = nullptr;    ///< received chunk payload
        std::size_t rawBytes = 0;
        TriMesh own;                       ///< received chunk, once parsed
    };
    std::vector<Work> work;
    std::vector<std::size_t> cursor(nr, 0);
    for (const std::size_t g : order) {
        if (assignee[g] != me) continue;
        Work w;
        w.desc = &all[g];
        const auto owner = static_cast<std::size_t>(all[g].owner);
        if (all[g].owner == me) {
            w.mesh = &mineChunks[g - first[owner]]->mesh;
        } else {
            const ChunkHeader h = readHeader(received[owner], cursor[owner]);
            TPF_ASSERT(h.part == all[g].part && h.gz0 == all[g].gz0,
                       "shipped mesh chunk out of plan order");
            w.raw = received[owner].data() + cursor[owner];
            w.rawBytes = h.bytes;
            cursor[owner] += h.bytes;
        }
        work.push_back(std::move(w));
    }

    // Still step 4: simplify over the rank's pool. The chunk's open-boundary
    // vertices — chunk interfaces and domain borders — are locked, so the
    // interfaces survive bit-exactly for the stitching weld (the paper's
    // high-weight boundary preservation). The triangle target alone stops
    // the collapse; the quadric-error bound stays at its unbounded default.
    const double t0 = perf::now();
    fanOut(opt.pool, work.size(), [&](std::size_t i) {
        Work& w = work[i];
        if (w.mesh == nullptr) {
            w.own = deserializeMesh(w.raw, w.rawBytes);
            w.mesh = &w.own;
        }
        SimplifyOptions so;
        so.targetTriangles = static_cast<std::size_t>(
            std::ceil(std::max(0.0, opt.reduceTarget) *
                      static_cast<double>(w.mesh->numTriangles())));
        so.lockOpenBoundary = true;
        simplifyMesh(*w.mesh, so);
    });
    const double wall = perf::now() - t0;
    received.clear();
    for (Work& w : work) {
        appendRecord(gatherBlob, w.desc->part, w.desc->gz0, *w.mesh);
        *w.mesh = TriMesh{};
    }
    return wall;
}

} // namespace

std::vector<TriMesh> stitchIsoSurface(const std::vector<MeshLocalSlab>& slabs,
                                      const std::vector<int>& components,
                                      vmpi::Comm* comm,
                                      const MeshPipelineOptions& opt,
                                      MeshPipelineTimings* timings) {
    const double tStart = perf::now();
    // Canonical chunking: every slab interior splits into the same fixed
    // kSlabHeight z-slabs the kernel sweeps use. The partition is a function
    // of the interval alone, so with block z-splits aligned to the slab grid
    // the chunk set — and every chunk's input — is identical in any
    // ranks x threads decomposition.
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

    // Step 1, one fan-out over every component x chunk of this rank:
    // extraction (lateral self-wrap + z ghosts, welded).
    const double t0 = perf::now();
    fanOut(opt.pool, chunks.size(), [&](std::size_t i) {
        ChunkRef& c = chunks[i];
        c.mesh = extractIsoSurfaceWrapXY(
            *c.field, components[static_cast<std::size_t>(c.part)], opt.iso,
            Vec3{static_cast<double>(c.origin.x),
                 static_cast<double>(c.origin.y),
                 static_cast<double>(c.origin.z)},
            c.lz0, c.lz1);
    });
    const double extractWall = perf::now() - t0;

    // Steps 2-4: the in-situ data reduction, balanced over every rank.
    // Simplification is a pure function of the raw chunk mesh, so where a
    // chunk is simplified never changes its bytes.
    std::vector<std::byte> blob;
    double simplifyWall = 0.0;
    if (opt.reduceTarget < 1.0) {
        simplifyWall = simplifyBalanced(chunks, comm, opt, blob);
    } else {
        for (ChunkRef& c : chunks) {
            appendRecord(blob, c.part, c.gz0, c.mesh);
            c.mesh = TriMesh{};
        }
    }
    chunks.clear();
    const auto addTimings = [&] {
        if (timings == nullptr) return;
        timings->extractSec += extractWall;
        timings->simplifySec += simplifyWall;
        timings->gatherSec +=
            perf::now() - tStart - extractWall - simplifyWall;
    };

    // Step 5: one rank-ordered gather for all components, canonical stitch
    // on root.
    std::vector<TriMesh> stitched(components.size());
    std::vector<std::vector<std::byte>> perRank;
    if (comm != nullptr && comm->size() > 1) {
        perRank = comm->gatherAllBytes(blob);
        if (!comm->isRoot()) {
            addTimings();
            return stitched;
        }
    } else {
        perRank.push_back(std::move(blob));
    }

    // Parse every rank's records and append each component's chunks in
    // ascending global-z order. Chunk z keys are unique per component
    // (z-only decomposition), so the sort makes the triangle stream
    // independent of which rank simplified which chunk.
    std::vector<std::vector<std::pair<std::int64_t, TriMesh>>> parts(
        components.size());
    for (const std::vector<std::byte>& rankBlob : perRank) {
        std::size_t at = 0;
        while (at < rankBlob.size()) {
            const ChunkHeader h = readHeader(rankBlob, at);
            TPF_ASSERT(h.part >= 0 &&
                           static_cast<std::size_t>(h.part) < parts.size(),
                       "mesh chunk component out of range");
            parts[static_cast<std::size_t>(h.part)].emplace_back(
                h.gz0, deserializeMesh(rankBlob.data() + at, h.bytes));
            at += h.bytes;
        }
    }
    fanOut(opt.pool, parts.size(), [&](std::size_t k) {
        auto& list = parts[k];
        std::stable_sort(list.begin(), list.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        for (auto& [gz0, part] : list) stitched[k].append(part);
        stitched[k].weldVertices(kWeldTol); // the final boundary weld
    });
    addTimings();
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
