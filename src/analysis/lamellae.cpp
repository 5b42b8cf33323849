#include "analysis/lamellae.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace tpf::analysis {

namespace {

/// Union-find with path compression.
class UnionFind {
public:
    explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
        std::iota(parent_.begin(), parent_.end(), 0);
    }
    int find(int v) {
        while (parent_[static_cast<std::size_t>(v)] != v) {
            parent_[static_cast<std::size_t>(v)] =
                parent_[static_cast<std::size_t>(
                    parent_[static_cast<std::size_t>(v)])];
            v = parent_[static_cast<std::size_t>(v)];
        }
        return v;
    }
    void unite(int a, int b) {
        a = find(a);
        b = find(b);
        if (a != b) parent_[static_cast<std::size_t>(a)] = b;
    }

private:
    std::vector<int> parent_;
};

/// Accumulate the parent/child transition counts between two labeled slices.
void countTransitions(const SliceLabels& prev, const SliceLabels& cur,
                      LamellaStats& st) {
    // The distinct (parent, child) links, as a sorted unique vector. Runs of
    // cells along x mostly repeat the previous link, so those are skipped
    // before the sort.
    std::vector<std::pair<int, int>> links;
    for (std::size_t i = 0; i < cur.label.size(); ++i) {
        if (prev.label[i] < 0 || cur.label[i] < 0) continue;
        const std::pair<int, int> link{prev.label[i], cur.label[i]};
        if (links.empty() || links.back() != link) links.push_back(link);
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    std::vector<int> children(static_cast<std::size_t>(prev.count), 0);
    std::vector<int> parents(static_cast<std::size_t>(cur.count), 0);
    for (const auto& [p, c] : links) {
        ++children[static_cast<std::size_t>(p)];
        ++parents[static_cast<std::size_t>(c)];
    }
    for (int c : children) {
        if (c == 0) ++st.vanishes;
        if (c >= 2) ++st.splits;
    }
    for (int p : parents) {
        if (p == 0) ++st.appears;
        if (p >= 2) ++st.merges;
    }
}

} // namespace

std::vector<unsigned char> indicatorPlane(const Field<double>& phi, int phase,
                                          int z) {
    const int nx = phi.nx(), ny = phi.ny();
    std::vector<unsigned char> ind(static_cast<std::size_t>(nx) * ny);
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            ind[static_cast<std::size_t>(y) * nx + x] =
                phi(x, y, z, phase) > 0.5 ? 1 : 0;
    return ind;
}

SliceLabels labelPlane(const unsigned char* ind, int nx, int ny) {
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");
    const int cells = nx * ny;

    UnionFind uf(cells);
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            const int i = y * nx + x;
            if (!ind[static_cast<std::size_t>(i)]) continue;
            const int xn = x + 1 == nx ? 0 : x + 1; // periodic +x neighbour
            const int yn = y + 1 == ny ? 0 : y + 1; // periodic +y neighbour
            if (ind[static_cast<std::size_t>(y) * nx + xn])
                uf.unite(i, y * nx + xn);
            if (ind[static_cast<std::size_t>(yn) * nx + x])
                uf.unite(i, yn * nx + x);
        }
    }

    SliceLabels out;
    out.label.assign(static_cast<std::size_t>(cells), -1);
    // Labels in first-seen scan order, through a dense root -> label table.
    std::vector<int> rootLabel(static_cast<std::size_t>(cells), -1);
    for (int i = 0; i < cells; ++i) {
        if (!ind[static_cast<std::size_t>(i)]) continue;
        int& label = rootLabel[static_cast<std::size_t>(uf.find(i))];
        if (label < 0) label = out.count++;
        out.label[static_cast<std::size_t>(i)] = label;
    }
    return out;
}

SliceLabels labelSlice(const Field<double>& phi, int phase, int z) {
    const auto ind = indicatorPlane(phi, phase, z);
    return labelPlane(ind.data(), phi.nx(), phi.ny());
}

LamellaStats analyzeLamellaePlanes(
    const std::vector<std::vector<unsigned char>>& planes, int nx, int ny) {
    LamellaStats st;
    if (planes.empty()) return st;

    SliceLabels prev = labelPlane(planes.front().data(), nx, ny);
    st.countPerSlice.push_back(prev.count);
    for (std::size_t p = 1; p < planes.size(); ++p) {
        SliceLabels cur = labelPlane(planes[p].data(), nx, ny);
        st.countPerSlice.push_back(cur.count);
        countTransitions(prev, cur, st);
        prev = std::move(cur);
    }
    return st;
}

LamellaStats analyzeLamellae(const Field<double>& phi, int phase, int z0,
                             int z1) {
    std::vector<std::vector<unsigned char>> planes;
    planes.reserve(static_cast<std::size_t>(z1 - z0 + 1));
    for (int z = z0; z <= z1; ++z)
        planes.push_back(indicatorPlane(phi, phase, z));
    return analyzeLamellaePlanes(planes, phi.nx(), phi.ny());
}

} // namespace tpf::analysis
