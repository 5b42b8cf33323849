/// Tests for the ghost-layer exchange: pack/unpack regions, intra-rank
/// copies, periodic wrapping, diagonal (D3C19) coverage, multi-rank
/// equivalence with the serial result (bitwise), and overlap start/wait.

#include <gtest/gtest.h>

#include <memory>

#include "comm/exchange.h"
#include "vmpi/comm.h"

namespace tpf {
namespace {

/// Value encoding the global cell id, so any misrouted slab is detected.
double cellTag(Int3 g, int x, int y, int z, int c) {
    return static_cast<double>(((z * g.y + y) * g.x + x) * 10 + c);
}

/// Wrap a global coordinate periodically.
int wrapc(int v, int n) { return ((v % n) + n) % n; }

TEST(Stencils, OffsetCounts) {
    EXPECT_EQ(stencilOffsets(StencilKind::D3C7).size(), 6u);
    EXPECT_EQ(stencilOffsets(StencilKind::D3C19).size(), 18u);
    EXPECT_EQ(stencilOffsets(StencilKind::D3C27).size(), 26u);
}

TEST(Stencils, OffsetIndexIsUniqueAndStable) {
    std::array<bool, 26> seen{};
    for (const Int3& o : stencilOffsets(StencilKind::D3C27)) {
        const int idx = offsetIndex27(o);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, 26);
        EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
        seen[static_cast<std::size_t>(idx)] = true;
    }
}

TEST(Regions, SendAndGhostRegionsMatchInSize) {
    Field<double> f(8, 6, 4, 2, 1, Layout::fzyx);
    for (const Int3& o : stencilOffsets(StencilKind::D3C27)) {
        const CellInterval s = sendRegion(f, o);
        const CellInterval g = ghostRegion(f, {-o.x, -o.y, -o.z});
        EXPECT_EQ(s.numCells(), g.numCells());
        EXPECT_FALSE(s.empty());
        // Send regions are interior; ghost regions are outside.
        EXPECT_TRUE(f.interior().intersect(s) == s);
        EXPECT_TRUE(f.interior().intersect(g).empty());
    }
}

/// Run an exchange over the ranks of \p bf and verify every ghost cell holds
/// the periodic-wrapped global value.
void runExchangeTest(const BlockForest& bf, StencilKind stencil) {
    const Int3 globalCells = bf.globalCells();
    vmpi::runParallel(bf.numRanks(), [&](vmpi::Comm& comm) {
        std::vector<std::unique_ptr<Field<double>>> fields;
        GhostExchange ex(bf, &comm, stencil, 0);

        const auto local = bf.localBlocks(comm.rank());
        for (int b : local) {
            const Int3 n = bf.blockCells(b);
            auto f = std::make_unique<Field<double>>(n.x, n.y, n.z, 2, 1,
                                                     Layout::fzyx);
            const Int3 o = bf.blockOrigin(b);
            forEachCell(f->interior(), [&](int x, int y, int z) {
                for (int c = 0; c < 2; ++c)
                    (*f)(x, y, z, c) =
                        cellTag(globalCells, o.x + x, o.y + y, o.z + z, c);
            });
            ex.registerField(b, f.get());
            fields.push_back(std::move(f));
        }

        ex.communicate();

        // Every ghost cell covered by the stencil offsets must hold the
        // periodic global value.
        for (std::size_t i = 0; i < local.size(); ++i) {
            const Int3 o = bf.blockOrigin(local[i]);
            Field<double>& f = *fields[i];
            for (const Int3& off : stencilOffsets(stencil)) {
                forEachCell(ghostRegion(f, off), [&](int x, int y, int z) {
                    const int gx = wrapc(o.x + x, globalCells.x);
                    const int gy = wrapc(o.y + y, globalCells.y);
                    const int gz = wrapc(o.z + z, globalCells.z);
                    for (int c = 0; c < 2; ++c)
                        ASSERT_EQ(f(x, y, z, c),
                                  cellTag(globalCells, gx, gy, gz, c))
                            << "ghost mismatch at offset (" << off.x << ","
                            << off.y << "," << off.z << ")";
                });
            }
        }
    });
}

void runExchangeTest(Int3 globalCells, Int3 blockSize, int nranks,
                     StencilKind stencil) {
    runExchangeTest(BlockForest::createUniform(globalCells, blockSize,
                                               {true, true, true}, nranks),
                    stencil);
}

TEST(Exchange, SerialSingleBlockPeriodicSelfWrap) {
    runExchangeTest({8, 8, 8}, {8, 8, 8}, 1, StencilKind::D3C19);
}

TEST(Exchange, SerialMultiBlock) {
    runExchangeTest({16, 8, 8}, {8, 8, 8}, 1, StencilKind::D3C19);
}

TEST(Exchange, TwoRanks) { runExchangeTest({16, 8, 8}, {8, 8, 8}, 2, StencilKind::D3C19); }

TEST(Exchange, EightRanksAllDiagonals) {
    runExchangeTest({16, 16, 16}, {8, 8, 8}, 8, StencilKind::D3C27);
}

TEST(Exchange, FaceOnlyStencil) {
    runExchangeTest({16, 16, 8}, {8, 8, 8}, 4, StencilKind::D3C7);
}

TEST(Exchange, UnevenBlockToRankAssignment) {
    runExchangeTest({24, 8, 8}, {8, 8, 8}, 2, StencilKind::D3C19);
}

TEST(Exchange, ZSlabsOfUnequalHeights) {
    // Per-rank heights 8 / 24 / 16: the z faces and the edges that cross a
    // slab boundary join blocks of different heights.
    for (const StencilKind k : {StencilKind::D3C7, StencilKind::D3C19,
                                StencilKind::D3C27})
        runExchangeTest(BlockForest::createZSlabs({8, 8, 48},
                                                  {true, true, true},
                                                  {8, 24, 16}),
                        k);
}

TEST(Exchange, StartWaitOverlapProducesSameResult) {
    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        const Int3 g{16, 8, 8}, bs{8, 8, 8};
        auto bf = BlockForest::createUniform(g, bs, {true, true, true}, 2);
        std::vector<std::unique_ptr<Field<double>>> fields;
        GhostExchange ex(bf, &comm, StencilKind::D3C19, 0);
        const auto local = bf.localBlocks(comm.rank());
        for (int b : local) {
            auto f = std::make_unique<Field<double>>(bs.x, bs.y, bs.z, 1, 1,
                                                     Layout::fzyx);
            const Int3 o = bf.blockOrigin(b);
            forEachCell(f->interior(), [&](int x, int y, int z) {
                (*f)(x, y, z, 0) = cellTag(g, o.x + x, o.y + y, o.z + z, 0);
            });
            ex.registerField(b, f.get());
            fields.push_back(std::move(f));
        }

        ex.start();
        // "Computation" between start and wait.
        volatile double sink = 0.0;
        for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
        ex.wait();

        for (std::size_t i = 0; i < local.size(); ++i) {
            const Int3 o = bf.blockOrigin(local[i]);
            Field<double>& f = *fields[i];
            forEachCell(ghostRegion(f, {1, 0, 0}), [&](int x, int y, int z) {
                ASSERT_EQ(f(x, y, z, 0),
                          cellTag(g, wrapc(o.x + x, g.x), wrapc(o.y + y, g.y),
                                  wrapc(o.z + z, g.z), 0));
            });
        }

        EXPECT_GT(ex.startSeconds() + ex.waitSeconds(), 0.0);
        if (comm.size() > 1) {
            EXPECT_GT(ex.bytesSent(), 0u);
        }
    });
}

TEST(Exchange, TimersAccumulateAndReset) {
    auto bf =
        BlockForest::createUniform({8, 8, 8}, {8, 8, 8}, {true, true, true}, 1);
    Field<double> f(8, 8, 8, 1, 1, Layout::fzyx);
    GhostExchange ex(bf, nullptr, StencilKind::D3C7, 0);
    ex.registerField(0, &f);
    ex.communicate();
    EXPECT_GE(ex.startSeconds(), 0.0);
    ex.resetTimers();
    EXPECT_EQ(ex.startSeconds(), 0.0);
    EXPECT_EQ(ex.waitSeconds(), 0.0);
}

} // namespace
} // namespace tpf
