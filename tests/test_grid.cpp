/// Tests for the block-structured grid: Field layouts / indexing / ghost
/// cells, CellInterval algebra, and BlockForest decomposition + periodic
/// neighbor topology + rank ownership.

#include <gtest/gtest.h>

#include "grid/block_forest.h"
#include "grid/cell_interval.h"
#include "grid/field.h"
#include "util/alignment.h"

namespace tpf {
namespace {

// --- CellInterval ---

TEST(CellInterval, EmptyAndCount) {
    CellInterval e;
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.numCells(), 0);

    CellInterval ci{0, 0, 0, 3, 1, 0};
    EXPECT_FALSE(ci.empty());
    EXPECT_EQ(ci.numCells(), 4 * 2 * 1);
}

TEST(CellInterval, IntersectAndContains) {
    CellInterval a{0, 0, 0, 9, 9, 9};
    CellInterval b{5, -2, 3, 14, 4, 20};
    CellInterval c = a.intersect(b);
    EXPECT_EQ(c, (CellInterval{5, 0, 3, 9, 4, 9}));
    EXPECT_TRUE(c.contains(5, 0, 3));
    EXPECT_FALSE(c.contains(4, 0, 3));
}

TEST(CellInterval, ForEachVisitsAllCellsInOrder) {
    CellInterval ci{0, 0, 0, 1, 1, 1};
    int count = 0;
    int lastZ = -1;
    forEachCell(ci, [&](int, int, int z) {
        ++count;
        EXPECT_GE(z, lastZ); // z outermost
        lastZ = z;
    });
    EXPECT_EQ(count, 8);
}

// --- Field ---

class FieldLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(FieldLayoutTest, RoundTripAllCellsIncludingGhosts) {
    Field<double> f(5, 4, 3, 2, 1, GetParam());
    double v = 0.0;
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        for (int c = 0; c < 2; ++c) f(x, y, z, c) = v++;
    });
    v = 0.0;
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        for (int c = 0; c < 2; ++c) EXPECT_EQ(f(x, y, z, c), v++);
    });
}

TEST_P(FieldLayoutTest, StridesMatchIndexArithmetic) {
    Field<double> f(8, 6, 5, 4, 1, GetParam());
    const auto base = f.index(2, 3, 1, 2);
    EXPECT_EQ(f.index(3, 3, 1, 2) - base, f.xStride());
    EXPECT_EQ(f.index(2, 4, 1, 2) - base, f.yStride());
    EXPECT_EQ(f.index(2, 3, 2, 2) - base, f.zStride());
    EXPECT_EQ(f.index(2, 3, 1, 3) - base, f.fStride());
}

TEST_P(FieldLayoutTest, DataIsCacheLineAligned) {
    Field<double> f(7, 7, 7, 4, 1, GetParam());
    EXPECT_TRUE(isAligned(f.data()));
}

TEST_P(FieldLayoutTest, SwapDataExchangesContents) {
    Field<double> a(4, 4, 4, 1, 1, GetParam());
    Field<double> b(4, 4, 4, 1, 1, GetParam());
    a.fill(1.0);
    b.fill(2.0);
    a.swapData(b);
    EXPECT_EQ(a(0, 0, 0, 0), 2.0);
    EXPECT_EQ(b(0, 0, 0, 0), 1.0);
}

TEST_P(FieldLayoutTest, CopyFromAndMaxAbsDiff) {
    Field<double> a(4, 4, 4, 2, 1, GetParam());
    Field<double> b(4, 4, 4, 2, 1, GetParam());
    a.fill(3.0);
    b.copyFrom(a);
    EXPECT_EQ(b.maxAbsDiff(a), 0.0);
    b(2, 2, 2, 1) = 3.5;
    EXPECT_EQ(b.maxAbsDiff(a), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Layouts, FieldLayoutTest,
                         ::testing::Values(Layout::fzyx, Layout::zyxf));

TEST(Field, FzyxXContiguous) {
    Field<double> f(8, 4, 4, 4, 1, Layout::fzyx);
    EXPECT_EQ(f.xStride(), 1);
}

TEST(Field, ZyxfComponentsContiguous) {
    Field<double> f(8, 4, 4, 4, 1, Layout::zyxf);
    EXPECT_EQ(f.fStride(), 1);
    EXPECT_EQ(f.xStride(), 4);
}

TEST(Field, InteriorAndGhostIntervals) {
    Field<double> f(6, 5, 4, 1, 1, Layout::fzyx);
    EXPECT_EQ(f.interior(), (CellInterval{0, 0, 0, 5, 4, 3}));
    EXPECT_EQ(f.withGhosts(), (CellInterval{-1, -1, -1, 6, 5, 4}));
}

TEST(Field, FillRegion) {
    Field<double> f(4, 4, 4, 2, 1, Layout::fzyx);
    f.fill(CellInterval{1, 1, 1, 2, 2, 2}, 7.0, 1);
    EXPECT_EQ(f(1, 1, 1, 1), 7.0);
    EXPECT_EQ(f(1, 1, 1, 0), 0.0);
    EXPECT_EQ(f(0, 0, 0, 1), 0.0);
}

// --- BlockForest ---

TEST(BlockForest, UniformDecompositionCoversDomain) {
    auto bf = BlockForest::createUniform({64, 32, 96}, {32, 32, 32},
                                         {true, true, false}, 1);
    EXPECT_EQ(bf.blockGrid(), (Int3{2, 1, 3}));
    EXPECT_EQ(bf.numBlocks(), 6);

    // Every block origin is distinct and tiles the domain.
    long long cells = 0;
    for (int b = 0; b < bf.numBlocks(); ++b) {
        const Int3 o = bf.blockOrigin(b);
        EXPECT_EQ(o.x % 32, 0);
        EXPECT_EQ(o.z % 32, 0);
        cells += 32LL * 32 * 32;
    }
    EXPECT_EQ(cells, 64LL * 32 * 96);
}

TEST(BlockForest, BlockIndexRoundTrip) {
    auto bf = BlockForest::createUniform({40, 40, 40}, {10, 20, 40},
                                         {true, true, true}, 1);
    for (int b = 0; b < bf.numBlocks(); ++b)
        EXPECT_EQ(bf.blockIndex(bf.blockCoords(b)), b);
}

TEST(BlockForest, RankAssignmentBalancedAndComplete) {
    auto bf = BlockForest::createUniform({80, 80, 80}, {20, 20, 20},
                                         {true, true, false}, 7);
    std::vector<int> counts(7, 0);
    for (int b = 0; b < bf.numBlocks(); ++b) {
        const int r = bf.rankOf(b);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, 7);
        ++counts[static_cast<std::size_t>(r)];
    }
    int total = 0;
    for (int r = 0; r < 7; ++r) {
        total += counts[static_cast<std::size_t>(r)];
        EXPECT_LE(std::abs(counts[static_cast<std::size_t>(r)] -
                           bf.numBlocks() / 7),
                  1);
        // localBlocks agrees with rankOf
        for (int b : bf.localBlocks(r)) EXPECT_EQ(bf.rankOf(b), r);
    }
    EXPECT_EQ(total, bf.numBlocks());
}

TEST(BlockForest, PeriodicNeighborWrapsAround) {
    auto bf = BlockForest::createUniform({60, 60, 60}, {20, 20, 20},
                                         {true, true, false}, 1);
    // Block at x = 0 has a -x neighbor at x = 2 (wrap).
    const int b0 = bf.blockIndex({0, 1, 1});
    const auto nb = bf.neighbor(b0, -1, 0, 0);
    ASSERT_TRUE(nb.has_value());
    EXPECT_EQ(bf.blockCoords(nb->block), (Int3{2, 1, 1}));
}

TEST(BlockForest, NonPeriodicBoundaryHasNoNeighbor) {
    auto bf = BlockForest::createUniform({60, 60, 60}, {20, 20, 20},
                                         {true, true, false}, 1);
    const int bTop = bf.blockIndex({1, 1, 2});
    EXPECT_FALSE(bf.neighbor(bTop, 0, 0, 1).has_value());
    EXPECT_TRUE(bf.neighbor(bTop, 0, 0, -1).has_value());
}

TEST(BlockForest, DiagonalNeighborsWrapIndependently) {
    auto bf = BlockForest::createUniform({40, 40, 40}, {20, 20, 20},
                                         {true, true, true}, 1);
    const int b = bf.blockIndex({0, 0, 0});
    const auto nb = bf.neighbor(b, -1, -1, -1);
    ASSERT_TRUE(nb.has_value());
    EXPECT_EQ(bf.blockCoords(nb->block), (Int3{1, 1, 1}));
}

TEST(BlockForest, NeighborSymmetry) {
    auto bf = BlockForest::createUniform({60, 40, 40}, {20, 20, 20},
                                         {true, false, true}, 3);
    for (int b = 0; b < bf.numBlocks(); ++b) {
        for (int dz = -1; dz <= 1; ++dz)
            for (int dy = -1; dy <= 1; ++dy)
                for (int dx = -1; dx <= 1; ++dx) {
                    if (dx == 0 && dy == 0 && dz == 0) continue;
                    const auto nb = bf.neighbor(b, dx, dy, dz);
                    if (!nb) continue;
                    const auto back = bf.neighbor(nb->block, -dx, -dy, -dz);
                    ASSERT_TRUE(back.has_value());
                    EXPECT_EQ(back->block, b);
                }
    }
}

TEST(BlockForest, ZSlabForestWithPerRankHeights) {
    // Three ranks with heights 8 / 24 / 16 over a 16x8x48 domain.
    auto bf = BlockForest::createZSlabs({16, 8, 48}, {true, true, false},
                                        {8, 24, 16});
    EXPECT_TRUE(bf.isZSlabs());
    EXPECT_EQ(bf.numRanks(), 3);
    EXPECT_EQ(bf.blockGrid(), (Int3{1, 1, 3}));
    EXPECT_EQ(bf.layerHeights(), (std::vector<int>{8, 24, 16}));
    const Int3 origins[3] = {{0, 0, 0}, {0, 0, 8}, {0, 0, 32}};
    const Int3 cells[3] = {{16, 8, 8}, {16, 8, 24}, {16, 8, 16}};
    for (int b = 0; b < 3; ++b) {
        EXPECT_EQ(bf.blockOrigin(b), origins[b]);
        EXPECT_EQ(bf.blockCells(b), cells[b]);
        EXPECT_EQ(bf.rankOf(b), b);
        EXPECT_EQ(bf.localBlocks(b), (std::vector<int>{b}));
    }
    // z neighbors follow the slabs; the non-periodic ends have none; x/y
    // wrap onto the block itself.
    EXPECT_EQ(bf.neighbor(1, 0, 0, -1)->block, 0);
    EXPECT_EQ(bf.neighbor(1, 0, 0, 1)->block, 2);
    EXPECT_EQ(bf.neighbor(1, 1, -1, 1)->rank, 2);
    EXPECT_FALSE(bf.neighbor(0, 0, 0, -1).has_value());
    EXPECT_FALSE(bf.neighbor(2, 0, 0, 1).has_value());
    EXPECT_EQ(bf.neighbor(0, 1, 0, 0)->block, 0);
}

TEST(BlockForest, UniformZSplitIsAZSlabForest) {
    auto slabs = BlockForest::createUniform({16, 16, 32}, {16, 16, 16},
                                            {true, true, false}, 2);
    EXPECT_TRUE(slabs.isZSlabs());
    EXPECT_EQ(slabs.layerHeights(), (std::vector<int>{16, 16}));
    EXPECT_EQ(slabs.blockCells(1), (Int3{16, 16, 16}));
    // Two blocks per rank, or a split in x: not z-slabs.
    EXPECT_FALSE(BlockForest::createUniform({16, 16, 32}, {16, 16, 8},
                                            {true, true, false}, 2)
                     .isZSlabs());
    EXPECT_FALSE(BlockForest::createUniform({16, 16, 32}, {8, 16, 32},
                                            {true, true, false}, 2)
                     .isZSlabs());
}

} // namespace
} // namespace tpf
