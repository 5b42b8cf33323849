#pragma once
/// \file block_forest.h
/// Block decomposition of the global simulation domain — uniform blocks, or
/// z-slabs of per-rank height — with periodic neighbor topology and static
/// rank ownership — the distributed data
/// structure of the waLBerla-style framework (each rank only ever touches its
/// own blocks and neighbor metadata).

#include <array>
#include <optional>
#include <vector>

#include "util/assert.h"

namespace tpf {

/// Integer 3-tuple for cell / block coordinates.
struct Int3 {
    int x = 0, y = 0, z = 0;
    bool operator==(const Int3&) const = default;
};

/// Identity and placement of a neighbor block.
struct NeighborInfo {
    int block = -1; ///< linear block index
    int rank = -1;  ///< owning rank
};

class BlockForest {
public:
    /// Decompose \p globalCells into a grid of equally sized blocks of
    /// \p blockSize cells, distributed over \p nranks ranks. The global size
    /// must be an exact multiple of the block size on every axis (the paper's
    /// setup — equally sized blocks are what makes the compute kernels
    /// uniform).
    static BlockForest createUniform(Int3 globalCells, Int3 blockSize,
                                     std::array<bool, 3> periodic, int nranks);

    /// A z-slab forest: one block per rank spanning the whole x/y extent,
    /// rank r owning the \p heights[r] planes above those of ranks < r. The
    /// uniform split is createUniform with blocks of {X, Y, Z / ranks}; the
    /// solver picks unequal heights to balance the ranks' cost (the paper
    /// "experimented with various load balancing techniques offered by the
    /// waLBerla framework"; core/zsplit.h).
    static BlockForest createZSlabs(Int3 globalCells,
                                    std::array<bool, 3> periodic,
                                    const std::vector<int>& heights);

    Int3 globalCells() const { return global_; }
    Int3 blockGrid() const { return grid_; }
    std::array<bool, 3> periodic() const { return periodic_; }
    int numRanks() const { return nranks_; }

    int numBlocks() const { return grid_.x * grid_.y * grid_.z; }

    /// Linear index of the block at grid coordinates (bx, by, bz).
    int blockIndex(Int3 bc) const {
        return (bc.z * grid_.y + bc.y) * grid_.x + bc.x;
    }
    /// Grid coordinates of block \p b.
    Int3 blockCoords(int b) const {
        TPF_ASSERT_DBG(b >= 0 && b < numBlocks(), "block index out of range");
        Int3 c;
        c.x = b % grid_.x;
        c.y = (b / grid_.x) % grid_.y;
        c.z = b / (grid_.x * grid_.y);
        return c;
    }
    /// Global cell coordinates of the block's first interior cell.
    Int3 blockOrigin(int b) const {
        const Int3 c = blockCoords(b);
        return {c.x * blockXY_.x, c.y * blockXY_.y,
                zBegin_[static_cast<std::size_t>(c.z)]};
    }
    /// Interior cells of block \p b.
    Int3 blockCells(int b) const {
        const auto z = static_cast<std::size_t>(blockCoords(b).z);
        return {blockXY_.x, blockXY_.y, zBegin_[z + 1] - zBegin_[z]};
    }
    /// Heights of the block layers, bottom to top: in a z-slab forest, the
    /// planes of each rank.
    std::vector<int> layerHeights() const;

    /// One block per rank, spanning the x/y extent (the shape createZSlabs
    /// builds, and createUniform with blocks of {X, Y, Z / ranks}).
    bool isZSlabs() const {
        return grid_.x == 1 && grid_.y == 1 && grid_.z == nranks_;
    }

    /// Rank that owns block \p b (contiguous chunks of the z-major order so
    /// that neighboring blocks tend to share ranks).
    int rankOf(int b) const;

    /// Linear indices of the blocks owned by \p rank, ascending.
    std::vector<int> localBlocks(int rank) const;

    /// Neighbor of block \p b in direction (ox, oy, oz) in {-1,0,1}^3 \ {0}.
    /// Returns nullopt at non-periodic domain boundaries.
    std::optional<NeighborInfo> neighbor(int b, int ox, int oy, int oz) const;

private:
    Int3 global_{};
    Int3 blockXY_{}; ///< x/y block size (z is per layer, zBegin_)
    Int3 grid_{};
    std::array<bool, 3> periodic_{};
    int nranks_ = 1;
    /// First global z of every block layer, plus NZ at the end.
    std::vector<int> zBegin_;
};

} // namespace tpf
