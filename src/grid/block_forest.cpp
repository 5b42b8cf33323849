#include "grid/block_forest.h"

namespace tpf {

BlockForest BlockForest::createUniform(Int3 globalCells, Int3 blockSize,
                                       std::array<bool, 3> periodic, int nranks) {
    TPF_ASSERT(globalCells.x > 0 && globalCells.y > 0 && globalCells.z > 0,
               "global domain must be non-empty");
    TPF_ASSERT(blockSize.x > 0 && blockSize.y > 0 && blockSize.z > 0,
               "block size must be positive");
    TPF_ASSERT(globalCells.x % blockSize.x == 0 &&
                   globalCells.y % blockSize.y == 0 &&
                   globalCells.z % blockSize.z == 0,
               "global size must be a multiple of the block size");
    TPF_ASSERT(nranks >= 1, "need at least one rank");

    BlockForest bf;
    bf.global_ = globalCells;
    bf.blockXY_ = {blockSize.x, blockSize.y, 0};
    bf.grid_ = {globalCells.x / blockSize.x, globalCells.y / blockSize.y,
                globalCells.z / blockSize.z};
    for (int k = 0; k <= bf.grid_.z; ++k) bf.zBegin_.push_back(k * blockSize.z);
    bf.periodic_ = periodic;
    bf.nranks_ = nranks;
    TPF_ASSERT(bf.numBlocks() >= nranks,
               "more ranks than blocks — every rank needs at least one block");
    return bf;
}

BlockForest BlockForest::createZSlabs(Int3 globalCells,
                                      std::array<bool, 3> periodic,
                                      const std::vector<int>& heights) {
    const int nranks = static_cast<int>(heights.size());
    TPF_ASSERT(nranks >= 1, "need at least one rank");
    TPF_ASSERT(globalCells.x > 0 && globalCells.y > 0,
               "global domain must be non-empty");
    BlockForest bf;
    bf.global_ = globalCells;
    bf.blockXY_ = {globalCells.x, globalCells.y, 0};
    bf.grid_ = {1, 1, nranks};
    bf.periodic_ = periodic;
    bf.nranks_ = nranks;
    bf.zBegin_ = {0};
    for (int h : heights) {
        TPF_ASSERT(h > 0, "every z-slab needs at least one plane");
        bf.zBegin_.push_back(bf.zBegin_.back() + h);
    }
    TPF_ASSERT(bf.zBegin_.back() == globalCells.z,
               "z-slab heights must sum to NZ");
    return bf;
}

std::vector<int> BlockForest::layerHeights() const {
    std::vector<int> h;
    for (std::size_t k = 0; k + 1 < zBegin_.size(); ++k)
        h.push_back(zBegin_[k + 1] - zBegin_[k]);
    return h;
}

int BlockForest::rankOf(int b) const {
    TPF_ASSERT_DBG(b >= 0 && b < numBlocks(), "block index out of range");
    // Contiguous chunks: the first (numBlocks % nranks) ranks own one extra
    // block. Deterministic and balanced to within one block.
    const int n = numBlocks();
    const int base = n / nranks_;
    const int extra = n % nranks_;
    const int cutoff = (base + 1) * extra; // blocks owned by the "big" ranks
    if (b < cutoff) return b / (base + 1);
    return extra + (b - cutoff) / base;
}

std::vector<int> BlockForest::localBlocks(int rank) const {
    std::vector<int> out;
    for (int b = 0; b < numBlocks(); ++b)
        if (rankOf(b) == rank) out.push_back(b);
    return out;
}

std::optional<NeighborInfo> BlockForest::neighbor(int b, int ox, int oy,
                                                  int oz) const {
    TPF_ASSERT_DBG(ox >= -1 && ox <= 1 && oy >= -1 && oy <= 1 && oz >= -1 && oz <= 1,
                   "neighbor offset components must be in {-1,0,1}");
    Int3 c = blockCoords(b);
    c.x += ox;
    c.y += oy;
    c.z += oz;

    auto wrap = [](int v, int n, bool per) -> std::optional<int> {
        if (v < 0) return per ? std::optional<int>(v + n) : std::nullopt;
        if (v >= n) return per ? std::optional<int>(v - n) : std::nullopt;
        return v;
    };
    const auto wx = wrap(c.x, grid_.x, periodic_[0]);
    const auto wy = wrap(c.y, grid_.y, periodic_[1]);
    const auto wz = wrap(c.z, grid_.z, periodic_[2]);
    if (!wx || !wy || !wz) return std::nullopt;

    const int nb = blockIndex({*wx, *wy, *wz});
    return NeighborInfo{nb, rankOf(nb)};
}

} // namespace tpf
