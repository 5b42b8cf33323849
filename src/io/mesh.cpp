#include "io/mesh.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/assert.h"

namespace tpf::io {

namespace {

/// Open-addressing map from a quantization bin to the newest kept vertex in
/// it: linear probing over a power-of-two array that is never more than half
/// full, so the weld's 27 probes per input vertex — most of them misses —
/// mostly end at the first slot they read, without a node allocation per bin.
class BinTable {
public:
    explicit BinTable(std::size_t maxKeys) {
        std::size_t cap = 16;
        while (cap < 2 * maxKeys) cap *= 2;
        mask_ = cap - 1;
        slots_.resize(cap);
    }

    /// Head of the chain of bin (x, y, z); -1 if the bin holds no vertex.
    int find(std::int64_t x, std::int64_t y, std::int64_t z) const {
        for (std::size_t i = home(x, y, z);; i = (i + 1) & mask_) {
            const Slot& s = slots_[i];
            if (s.head < 0) return -1;
            if (s.x == x && s.y == y && s.z == z) return s.head;
        }
    }

    /// Make \p kept the head of bin (x, y, z); returns the previous head
    /// (-1 for a new bin).
    int pushFront(std::int64_t x, std::int64_t y, std::int64_t z, int kept) {
        for (std::size_t i = home(x, y, z);; i = (i + 1) & mask_) {
            Slot& s = slots_[i];
            if (s.head < 0) {
                s = Slot{x, y, z, kept};
                return -1;
            }
            if (s.x == x && s.y == y && s.z == z) {
                const int prev = s.head;
                s.head = kept;
                return prev;
            }
        }
    }

private:
    struct Slot {
        std::int64_t x = 0, y = 0, z = 0;
        int head = -1;
    };

    std::size_t home(std::int64_t x, std::int64_t y, std::int64_t z) const {
        std::uint64_t h = static_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ULL;
        h ^= static_cast<std::uint64_t>(y) * 0xC2B2AE3D27D4EB4FULL;
        h ^= static_cast<std::uint64_t>(z) * 0x165667B19E3779F9ULL;
        h ^= h >> 32;
        return static_cast<std::size_t>(h) & mask_;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
};

} // namespace

void TriMesh::append(const TriMesh& o) {
    const int base = static_cast<int>(vertices.size());
    vertices.insert(vertices.end(), o.vertices.begin(), o.vertices.end());
    triangles.reserve(triangles.size() + o.triangles.size());
    for (const auto& t : o.triangles)
        triangles.push_back({t[0] + base, t[1] + base, t[2] + base});
}

void TriMesh::weldVertices(double tol) {
    TPF_ASSERT(tol > 0.0, "weld tolerance must be positive");
    const double inv = 1.0 / tol;

    // Table of kept-vertex indices per quantization bin. A bin can hold
    // several representatives (points within a bin but further than tol
    // apart along some axis stay distinct), so each bin stores the head of
    // an intrusive chain through chainPrev — a per-bin std::vector would
    // cost one heap allocation per bin.
    BinTable bins(vertices.size());
    std::vector<int> remap(vertices.size());
    std::vector<Vec3> keptVertices;
    keptVertices.reserve(vertices.size());
    std::vector<int> chainPrev; ///< kept index -> previous kept in same bin
    chainPrev.reserve(vertices.size());

    for (std::size_t i = 0; i < vertices.size(); ++i) {
        const Vec3& v = vertices[i];
        const std::int64_t bx = static_cast<std::int64_t>(std::llround(v.x * inv));
        const std::int64_t by = static_cast<std::int64_t>(std::llround(v.y * inv));
        const std::int64_t bz = static_cast<std::int64_t>(std::llround(v.z * inv));
        // Probe the 27 neighbor bins: two points within tol can land in
        // adjacent bins when they straddle a quantization boundary, which
        // used to leave hairline cracks at tet/cube seams. Among all
        // candidates within tol (per axis) the earliest-kept index wins, so
        // welding stays a pure function of the input vertex order —
        // first-insertion order, never the table layout.
        int match = -1;
        for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    for (int k = bins.find(bx + dx, by + dy, bz + dz); k >= 0;
                         k = chainPrev[static_cast<std::size_t>(k)]) {
                        const Vec3& u = keptVertices[static_cast<std::size_t>(k)];
                        if (std::abs(u.x - v.x) <= tol &&
                            std::abs(u.y - v.y) <= tol &&
                            std::abs(u.z - v.z) <= tol &&
                            (match < 0 || k < match))
                            match = k;
                    }
                }
            }
        }
        if (match < 0) {
            match = static_cast<int>(keptVertices.size());
            keptVertices.push_back(v);
            chainPrev.push_back(bins.pushFront(bx, by, bz, match));
        }
        remap[i] = match;
    }

    std::vector<std::array<int, 3>> keptTriangles;
    keptTriangles.reserve(triangles.size());
    for (const auto& t : triangles) {
        const std::array<int, 3> m{remap[static_cast<std::size_t>(t[0])],
                                   remap[static_cast<std::size_t>(t[1])],
                                   remap[static_cast<std::size_t>(t[2])]};
        if (m[0] == m[1] || m[1] == m[2] || m[0] == m[2]) continue; // degenerate
        keptTriangles.push_back(m);
    }

    vertices = std::move(keptVertices);
    triangles = std::move(keptTriangles);
}

void TriMesh::compactVertices() {
    std::vector<int> remap(vertices.size(), -1);
    std::vector<Vec3> kept;
    for (auto& t : triangles) {
        for (int& idx : t) {
            auto& m = remap[static_cast<std::size_t>(idx)];
            if (m < 0) {
                m = static_cast<int>(kept.size());
                kept.push_back(vertices[static_cast<std::size_t>(idx)]);
            }
            idx = m;
        }
    }
    vertices = std::move(kept);
}

double TriMesh::totalArea() const {
    double area = 0.0;
    for (const auto& t : triangles) {
        const Vec3& a = vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = vertices[static_cast<std::size_t>(t[2])];
        area += 0.5 * (b - a).cross(c - a).norm();
    }
    return area;
}

std::vector<EdgeUse> sortedEdgeUses(const TriMesh& m) {
    // Counting sort by the lower vertex (stable, so slot order survives),
    // then an insertion sort by the upper vertex inside each bucket, whose
    // size is of the order of a vertex degree: the full (key, slot) order
    // without a comparison sort over all uses.
    const std::size_t nv = m.vertices.size();
    std::vector<int> start(nv + 2, 0);
    for (const auto& t : m.triangles)
        for (int e = 0; e < 3; ++e)
            ++start[static_cast<std::size_t>(
                        std::min(t[static_cast<std::size_t>(e)],
                                 t[static_cast<std::size_t>((e + 1) % 3)])) +
                    2];
    for (std::size_t v = 2; v < start.size(); ++v) start[v] += start[v - 1];

    std::vector<EdgeUse> uses(3 * m.triangles.size());
    for (std::size_t f = 0; f < m.triangles.size(); ++f) {
        const auto& t = m.triangles[f];
        for (int e = 0; e < 3; ++e) {
            int a = t[static_cast<std::size_t>(e)];
            int b = t[static_cast<std::size_t>((e + 1) % 3)];
            if (a > b) std::swap(a, b);
            uses[static_cast<std::size_t>(
                start[static_cast<std::size_t>(a) + 1]++)] = EdgeUse{
                (static_cast<std::uint64_t>(a) << 32) |
                    static_cast<std::uint32_t>(b),
                static_cast<int>(f * 3) + e};
        }
    }
    // start[v] is now the first use of bucket v, start[v + 1] one past it.
    for (std::size_t v = 0; v < nv; ++v) {
        const auto first = uses.begin() + start[v];
        const auto last = uses.begin() + start[v + 1];
        for (auto it = first + (first != last); it < last; ++it) {
            const EdgeUse u = *it;
            auto hole = it;
            for (; hole != first && (hole - 1)->key > u.key; --hole)
                *hole = *(hole - 1);
            *hole = u;
        }
    }
    return uses;
}

long long TriMesh::eulerCharacteristic() const {
    const std::vector<EdgeUse> uses = sortedEdgeUses(*this);
    long long edges = 0;
    for (std::size_t i = 0; i < uses.size(); ++i)
        edges += (i == 0 || uses[i].key != uses[i - 1].key);
    // Count only vertices in use.
    std::vector<char> used(vertices.size(), 0);
    for (const auto& t : triangles)
        for (int idx : t) used[static_cast<std::size_t>(idx)] = 1;
    long long v = 0;
    for (char u : used) v += u;
    return v - edges + static_cast<long long>(triangles.size());
}

bool TriMesh::isClosed() const {
    if (triangles.empty()) return false;
    const std::vector<EdgeUse> uses = sortedEdgeUses(*this);
    // Closed: every run of equal keys has length exactly two.
    for (std::size_t i = 0; i < uses.size(); i += 2)
        if (i + 1 == uses.size() || uses[i + 1].key != uses[i].key ||
            (i + 2 < uses.size() && uses[i + 2].key == uses[i].key))
            return false;
    return true;
}

std::vector<char> TriMesh::openBoundaryVertices() const {
    std::vector<char> flags(vertices.size(), 0);
    const std::vector<EdgeUse> uses = sortedEdgeUses(*this);
    for (std::size_t i = 0; i < uses.size(); ++i) {
        const bool single =
            (i == 0 || uses[i - 1].key != uses[i].key) &&
            (i + 1 == uses.size() || uses[i + 1].key != uses[i].key);
        if (!single) continue;
        flags[static_cast<std::size_t>(uses[i].key >> 32)] = 1;
        flags[static_cast<std::size_t>(uses[i].key & 0xffffffffULL)] = 1;
    }
    return flags;
}

std::pair<Vec3, Vec3> TriMesh::boundingBox() const {
    Vec3 lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
    for (const Vec3& v : vertices) {
        lo.x = std::min(lo.x, v.x);
        lo.y = std::min(lo.y, v.y);
        lo.z = std::min(lo.z, v.z);
        hi.x = std::max(hi.x, v.x);
        hi.y = std::max(hi.y, v.y);
        hi.z = std::max(hi.z, v.z);
    }
    return {lo, hi};
}

Vec3 TriMesh::triangleNormal(std::size_t t) const {
    const auto& tr = triangles[t];
    const Vec3& a = vertices[static_cast<std::size_t>(tr[0])];
    const Vec3& b = vertices[static_cast<std::size_t>(tr[1])];
    const Vec3& c = vertices[static_cast<std::size_t>(tr[2])];
    const Vec3 n = (b - a).cross(c - a);
    const double len = n.norm();
    if (len < 1e-300) return {0.0, 0.0, 0.0};
    return n * (1.0 / len);
}

} // namespace tpf::io
