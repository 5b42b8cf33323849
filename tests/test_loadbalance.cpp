/// Tests for the start-up z-split of a z-slab forest (core/zsplit.h): the
/// exact linear partition of per-plane costs into per-rank heights, its tie
/// and fallback rules, and the per-plane region counts of the Voronoi
/// initial condition it is fed with (paper §5.1.2: "We experimented with
/// various load balancing techniques offered by the waLBerla framework").

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/solver.h"
#include "core/zsplit.h"
#include "thermo/agalcu.h"
#include "util/random.h"

namespace tpf {
namespace {

/// One cost per plane from one cost per 8-plane unit.
std::vector<long long> planesFromUnits(const std::vector<long long>& units) {
    std::vector<long long> planes;
    for (long long u : units)
        for (int k = 0; k < core::kSlabHeight; ++k) planes.push_back(u);
    return planes;
}

/// Costs of the runs \p heights cut \p planes into.
std::vector<long long> runCosts(const std::vector<long long>& planes,
                                const std::vector<int>& heights) {
    std::vector<long long> out;
    std::size_t z = 0;
    for (int h : heights) {
        long long c = 0;
        for (int k = 0; k < h; ++k) c += planes[z++];
        out.push_back(c);
    }
    EXPECT_EQ(z, planes.size()) << "heights must cover every plane";
    return out;
}

/// Brute force over every split of \p units unit costs into \p ranks
/// non-empty runs: the minimal bottleneck, and among the minimal splits
/// the one whose boundaries are lowest (lexicographically smallest).
std::vector<int> bruteForceUnits(const std::vector<long long>& units,
                                 int ranks) {
    const int n = static_cast<int>(units.size());
    std::vector<int> best, cur;
    long long bestCost = -1;
    auto rec = [&](auto&& self, int start, int r) -> void {
        if (r == ranks - 1) {
            cur.push_back(n - start);
            long long worst = 0;
            int at = 0;
            for (int len : cur) {
                long long c = 0;
                for (int k = 0; k < len; ++k) c += units[static_cast<std::size_t>(at++)];
                worst = std::max(worst, c);
            }
            // Enumeration visits rank 0's shortest run first, so the first
            // minimum found is the lowest split.
            if (bestCost < 0 || worst < bestCost) {
                bestCost = worst;
                best = cur;
            }
            cur.pop_back();
            return;
        }
        for (int len = 1; start + len <= n - (ranks - 1 - r); ++len) {
            cur.push_back(len);
            self(self, start + len, r + 1);
            cur.pop_back();
        }
    };
    rec(rec, 0, 0);
    return best;
}

TEST(ZSplit, UniformCostGivesTheUniformSplit) {
    for (const int ranks : {1, 2, 3, 4}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        const std::vector<long long> planes(96, 7);
        EXPECT_EQ(core::balancedZHeights(planes, ranks),
                  std::vector<int>(static_cast<std::size_t>(ranks),
                                   96 / ranks));
    }
}

TEST(ZSplit, HeavyBottomGivesAThinnerRankZero) {
    // The production picture: solid at the bottom costs ~2.6x the liquid.
    std::vector<long long> planes(192, 100);
    for (int z = 0; z < 36; ++z) planes[static_cast<std::size_t>(z)] = 260;
    const std::vector<int> h = core::balancedZHeights(planes, 2);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_LT(h[0], h[1]);
    EXPECT_EQ(h[0] % core::kSlabHeight, 0);
    EXPECT_EQ(h[0] + h[1], 192);
    const auto costs = runCosts(planes, h);
    const auto uniform = runCosts(planes, {96, 96});
    EXPECT_LT(*std::max_element(costs.begin(), costs.end()),
              *std::max_element(uniform.begin(), uniform.end()));
}

TEST(ZSplit, TiesGoToTheLowestSplit) {
    // Units {4, 10, 1, 1, 1, 1}: cutting after unit 0 (4 | 14) and after
    // unit 1 (14 | 4) both have bottleneck 14; the lower cut wins.
    const std::vector<long long> planes =
        planesFromUnits({4, 10, 1, 1, 1, 1});
    EXPECT_EQ(core::balancedZHeights(planes, 2), (std::vector<int>{8, 40}));
    // Mirrored, the tie is between cutting after unit 3 (4 | 14) and after
    // unit 4 (14 | 4): again the lower cut, so the rule is not symmetric.
    EXPECT_EQ(core::balancedZHeights(planesFromUnits({1, 1, 1, 1, 10, 4}), 2),
              (std::vector<int>{32, 16}));
}

TEST(ZSplit, MatchesTheBruteForceOptimumWithItsTieRule) {
    Random rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        const int ranks = 2 + static_cast<int>(rng.uniformInt(3));
        const int unitsPerRank = 1 + static_cast<int>(rng.uniformInt(3));
        std::vector<long long> units(
            static_cast<std::size_t>(ranks * unitsPerRank));
        // Few distinct values, so ties are common.
        for (auto& u : units) u = 1 + static_cast<long long>(rng.uniformInt(4));
        std::vector<int> expected = bruteForceUnits(units, ranks);
        for (int& e : expected) e *= core::kSlabHeight;
        EXPECT_EQ(core::balancedZHeights(planesFromUnits(units), ranks),
                  expected)
            << "trial " << trial << ", ranks " << ranks;
    }
}

TEST(ZSplit, KeepsTheUniformSplitOffTheUnitGrid) {
    // 40 planes on 2 ranks: 20 is not a multiple of 8.
    std::vector<long long> planes(40, 100);
    for (int z = 0; z < 16; ++z) planes[static_cast<std::size_t>(z)] = 400;
    EXPECT_EQ(core::balancedZHeights(planes, 2), (std::vector<int>{20, 20}));
    // NZ / 8 < ranks: 24 planes (3 units) on 4 ranks.
    std::vector<long long> few(24, 100);
    few[0] = 1000;
    EXPECT_EQ(core::balancedZHeights(few, 4), (std::vector<int>(4, 6)));
}

TEST(ZSplit, RegionCostWeighsTheClasses) {
    core::RegionStats liquid, solid;
    liquid.bulkLiquid = 10;
    solid.bulkSolid = 5;
    solid.interface = 5;
    EXPECT_EQ(core::regionCost(liquid), 10LL * core::kCellClassCost.bulkLiquid);
    EXPECT_GT(core::regionCost(solid), core::regionCost(liquid));
    EXPECT_LT(core::kCellClassCost.bulkLiquid, core::kCellClassCost.bulkSolid);
    EXPECT_LT(core::kCellClassCost.bulkSolid, core::kCellClassCost.interface);
    EXPECT_LT(core::kCellClassCost.interface, core::kCellClassCost.front);
}

core::SolverConfig voronoiConfig(Int3 cells, int fill, int ranks) {
    core::SolverConfig cfg;
    cfg.globalCells = cells;
    if (ranks > 1) cfg.blockSize = {cells.x, cells.y, cells.z / ranks};
    cfg.init.fillHeight = fill;
    return cfg;
}

TEST(ZSplit, PlaneRegionsMatchTheFilledField) {
    // The column table the split reads must classify every plane exactly as
    // classifyCell classifies the field initVoronoi fills.
    const core::SolverConfig cfg = voronoiConfig({16, 16, 64}, 12, 1);
    core::Solver s(cfg);
    s.initialize();
    const auto planes = core::voronoiPlaneRegions(
        cfg.globalCells, cfg.periodic, cfg.init, s.system());
    ASSERT_EQ(planes.size(), 64u);
    const Field<double>& phi = s.localBlocks()[0]->phiSrc;
    for (int z = 0; z < 64; ++z) {
        core::RegionStats st;
        forEachCell(CellInterval{0, 0, z, 15, 15, z}, [&](int x, int y, int zz) {
            switch (core::classifyCell(phi, x, y, zz)) {
                case core::CellRegion::BulkSolid: ++st.bulkSolid; break;
                case core::CellRegion::BulkLiquid: ++st.bulkLiquid; break;
                case core::CellRegion::Interface: ++st.interface; break;
                case core::CellRegion::Front: ++st.front; break;
            }
        });
        const core::RegionStats& p = planes[static_cast<std::size_t>(z)];
        EXPECT_EQ(p.bulkSolid, st.bulkSolid) << "plane " << z;
        EXPECT_EQ(p.bulkLiquid, st.bulkLiquid) << "plane " << z;
        EXPECT_EQ(p.interface, st.interface) << "plane " << z;
        EXPECT_EQ(p.front, st.front) << "plane " << z;
    }
}

TEST(ZSplit, InitialSplitOfTheTestShapes) {
    // The 16x16x32 fill-26 suites keep the uniform split; 16x16x64 with the
    // solid at the bottom gives rank 0 fewer planes.
    EXPECT_EQ(core::Solver::initialZSplit(voronoiConfig({16, 16, 32}, 26, 2), 2),
              (std::vector<int>{16, 16}));
    EXPECT_EQ(core::Solver::initialZSplit(voronoiConfig({16, 16, 32}, 26, 4), 4),
              (std::vector<int>(4, 8)));
    const std::vector<int> h =
        core::Solver::initialZSplit(voronoiConfig({16, 16, 64}, 12, 2), 2);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_LT(h[0], h[1]);
    EXPECT_EQ(h[0] + h[1], 64);
    // Not a z-slab forest (two blocks per rank): the configured blocks.
    core::SolverConfig twoPerRank = voronoiConfig({16, 16, 64}, 12, 2);
    twoPerRank.blockSize = {16, 16, 16};
    EXPECT_EQ(core::Solver::initialZSplit(twoPerRank, 2),
              (std::vector<int>(4, 16)));
}

TEST(ZSplit, InitializeAppliesTheSplitOnEveryRank) {
    const core::SolverConfig cfg = voronoiConfig({16, 16, 64}, 12, 2);
    const std::vector<int> expected = core::Solver::initialZSplit(cfg, 2);
    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        core::Solver s(cfg, &comm);
        EXPECT_EQ(s.forest().layerHeights(), (std::vector<int>{32, 32}));
        s.initialize();
        EXPECT_EQ(s.forest().layerHeights(), expected);
        ASSERT_EQ(s.localBlocks().size(), 1u);
        const core::SimBlock& b = *s.localBlocks()[0];
        EXPECT_EQ(b.size.z, expected[static_cast<std::size_t>(comm.rank())]);
        EXPECT_EQ(b.origin.z, comm.rank() == 0 ? 0 : expected[0]);
    });
}

} // namespace
} // namespace tpf
