/// Integration tests of the full solver: Algorithm 1 vs Algorithm 2
/// (communication hiding), multi-rank vs serial bitwise equivalence, moving
/// window, long-run stability, boundary handling.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/solver.h"

namespace tpf::core {
namespace {

SolverConfig smallConfig() {
    SolverConfig cfg;
    cfg.globalCells = {32, 32, 48};
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.zEut0 = 20.0;
    cfg.model.temp.velocity = 0.02;
    cfg.init.fillHeight = 10;
    cfg.init.seedsPerArea = 10;
    return cfg;
}

/// Collect the full global phi/mu state of a solver into flat vectors
/// indexed by global cell (for cross-run comparison).
struct Snapshot {
    std::vector<double> phi, mu;

    static Snapshot take(Solver& s) {
        const Int3 g = s.forest().globalCells();
        Snapshot sn;
        sn.phi.assign(static_cast<std::size_t>(g.x) * g.y * g.z * N, -1.0);
        sn.mu.assign(static_cast<std::size_t>(g.x) * g.y * g.z * KC, -1.0);
        for (auto& b : s.localBlocks()) {
            forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
                const std::size_t cell =
                    (static_cast<std::size_t>(b->origin.z + z) * g.y +
                     (b->origin.y + y)) *
                        g.x +
                    (b->origin.x + x);
                for (int a = 0; a < N; ++a)
                    sn.phi[cell * N + a] = b->phiSrc(x, y, z, a);
                for (int c = 0; c < KC; ++c)
                    sn.mu[cell * KC + c] = b->muSrc(x, y, z, c);
            });
        }
        return sn;
    }

    double maxDiff(const Snapshot& o) const {
        double m = 0.0;
        for (std::size_t i = 0; i < phi.size(); ++i)
            m = std::max(m, std::abs(phi[i] - o.phi[i]));
        for (std::size_t i = 0; i < mu.size(); ++i)
            m = std::max(m, std::abs(mu[i] - o.mu[i]));
        return m;
    }

    /// Byte-level equality (stricter than maxDiff == 0: distinguishes the
    /// sign of zero, i.e. exactly what a checkpoint file would contain).
    bool bitwiseEqual(const Snapshot& o) const {
        return phi.size() == o.phi.size() && mu.size() == o.mu.size() &&
               std::memcmp(phi.data(), o.phi.data(),
                           phi.size() * sizeof(double)) == 0 &&
               std::memcmp(mu.data(), o.mu.data(),
                           mu.size() * sizeof(double)) == 0;
    }

    /// Merge per-rank snapshots: each rank left untouched cells at the -1
    /// sentinel, so the union reconstructs the global fields.
    static Snapshot merge(const std::vector<Snapshot>& parts) {
        Snapshot m = parts.front();
        for (std::size_t r = 1; r < parts.size(); ++r) {
            for (std::size_t i = 0; i < m.phi.size(); ++i)
                if (parts[r].phi[i] >= 0.0) m.phi[i] = parts[r].phi[i];
            for (std::size_t i = 0; i < m.mu.size(); ++i)
                if (parts[r].mu[i] != -1.0) m.mu[i] = parts[r].mu[i];
        }
        return m;
    }
};

TEST(Solver, StableGrowthWithPhysicalInvariants) {
    Solver s(smallConfig());
    s.initialize();
    const auto f0 = s.phaseFractions();

    s.run(300);

    const auto f1 = s.phaseFractions();
    EXPECT_LT(f1[LIQ], f0[LIQ]) << "liquid must solidify under undercooling";
    EXPECT_GT(f1[LIQ], 0.3) << "only the front region should have solidified";

    // All solids present and of similar magnitude (ternary eutectic).
    for (int a = 0; a < 3; ++a) EXPECT_GT(f1[static_cast<std::size_t>(a)], 0.02);

    // phi stays on the simplex everywhere, no NaNs anywhere.
    for (auto& b : s.localBlocks()) {
        forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
            double sum = 0.0;
            for (int a = 0; a < N; ++a) {
                const double v = b->phiSrc(x, y, z, a);
                ASSERT_TRUE(std::isfinite(v));
                ASSERT_GE(v, 0.0);
                ASSERT_LE(v, 1.0);
                sum += v;
            }
            ASSERT_NEAR(sum, 1.0, 1e-12);
            ASSERT_TRUE(std::isfinite(b->muSrc(x, y, z, 0)));
            ASSERT_TRUE(std::isfinite(b->muSrc(x, y, z, 1)));
        });
    }
    EXPECT_LT(s.maxMuDeviation(), 5.0);
    EXPECT_NEAR(s.time(), 300 * s.config().model.dt, 1e-12);
}

TEST(Solver, MuOverlapIsBitwiseEquivalentToAlgorithm1) {
    // Hiding the mu communication only changes *when* ghosts are exchanged
    // (end of step k vs start of step k+1) — the values are identical.
    auto cfg = smallConfig();
    cfg.overlapMu = false;
    Solver plain(cfg);
    plain.initialize();
    plain.run(50);

    cfg.overlapMu = true;
    Solver overlap(cfg);
    overlap.initialize();
    overlap.run(50);

    EXPECT_EQ(Snapshot::take(plain).maxDiff(Snapshot::take(overlap)), 0.0);
}

class SolverRankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverRankCountTest, MultiRankMatchesSerialBitwise) {
    const int nranks = GetParam();

    auto cfg = smallConfig();
    Snapshot serial;
    {
        Solver s(cfg);
        s.initialize();
        s.run(30);
        serial = Snapshot::take(s);
    }

    // Same run decomposed into one z-slab block per rank. Ghost exchange only
    // copies values, so the result must be bitwise identical.
    cfg.blockSize = {32, 32, 48 / nranks};
    std::vector<Snapshot> parts(static_cast<std::size_t>(nranks));
    vmpi::runParallel(nranks, [&](vmpi::Comm& comm) {
        Solver s(cfg, &comm);
        s.initialize();
        s.run(30);
        parts[static_cast<std::size_t>(comm.rank())] = Snapshot::take(s);
    });

    EXPECT_EQ(serial.maxDiff(Snapshot::merge(parts)), 0.0)
        << nranks << "-rank run must be bitwise identical to serial";
}

INSTANTIATE_TEST_SUITE_P(Ranks, SolverRankCountTest, ::testing::Values(2, 4, 8));

TEST(Solver, MultiBlockPerRankMatchesSerial) {
    auto cfg = smallConfig();
    Snapshot serial;
    {
        Solver s(cfg);
        s.initialize();
        s.run(20);
        serial = Snapshot::take(s);
    }
    // 2x2x2 blocks all owned by one rank (intra-rank exchange only).
    cfg.blockSize = {16, 16, 24};
    Solver s(cfg);
    s.initialize();
    s.run(20);
    EXPECT_EQ(serial.maxDiff(Snapshot::take(s)), 0.0);
}

class SolverThreadCountTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverThreadCountTest, ThreadedRunIsBitwiseIdenticalToSerial) {
    // The slab partition is a function of the sweep interval alone (see
    // core/slab_sweep.h), so any thread count must reproduce the threads=1
    // fields down to the last bit — this is what makes checkpoints from
    // hybrid runs reproducible.
    auto cfg = smallConfig();
    cfg.threads = 1;
    Solver serial(cfg);
    serial.initialize();
    serial.run(30);

    cfg.threads = GetParam();
    Solver threaded(cfg);
    threaded.initialize();
    threaded.run(30);

    EXPECT_TRUE(
        Snapshot::take(serial).bitwiseEqual(Snapshot::take(threaded)))
        << "threads=" << GetParam() << " diverged from the serial sweep";
}

INSTANTIATE_TEST_SUITE_P(Threads, SolverThreadCountTest,
                         ::testing::Values(2, 4, 7));

TEST(Solver, HybridRanksTimesThreadsMatchesSerial) {
    // 2 ranks x 2 threads: the hybrid mode composes the vmpi z-split with
    // the intra-rank slab fan-out; values must match the serial run exactly
    // (ghost exchange only copies, slabs only redistribute work).
    auto cfg = smallConfig();
    Snapshot serial;
    {
        Solver s(cfg);
        s.initialize();
        s.run(30);
        serial = Snapshot::take(s);
    }
    cfg.blockSize = {32, 32, 24};
    cfg.threads = 2;
    std::vector<Snapshot> parts(2);
    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        Solver s(cfg, &comm);
        s.initialize();
        s.run(30);
        parts[static_cast<std::size_t>(comm.rank())] = Snapshot::take(s);
    });
    EXPECT_EQ(serial.maxDiff(Snapshot::merge(parts)), 0.0);
}

TEST(Solver, ThreadedMovingWindowAndOverlapMatchSerial) {
    // Window shifts and the mu-overlap schedule both fan out to the pool;
    // the combination must still be thread-count invariant.
    auto cfg = smallConfig();
    cfg.window.enabled = true;
    cfg.window.triggerFraction = 0.18;
    cfg.window.checkEvery = 5;
    cfg.overlapMu = true;

    cfg.threads = 1;
    Solver serial(cfg);
    serial.initialize();
    serial.run(120);

    cfg.threads = 4;
    Solver threaded(cfg);
    threaded.initialize();
    threaded.run(120);

    EXPECT_TRUE(Snapshot::take(serial).bitwiseEqual(Snapshot::take(threaded)));
    EXPECT_EQ(serial.windowOffsetCells(), threaded.windowOffsetCells());
}

TEST(Solver, MovingWindowTracksTheFront) {
    auto cfg = smallConfig();
    cfg.window.enabled = true;
    cfg.window.triggerFraction = 0.18; // below the initial fill -> shifts soon
    cfg.window.checkEvery = 5;
    Solver s(cfg);
    s.initialize();
    const auto f0 = s.phaseFractions();

    s.run(200);

    EXPECT_GT(s.windowOffsetCells(), 0.0) << "window must have shifted";
    // The front stays near the trigger plane in the tracked frame.
    EXPECT_LT(s.frontPosition(),
              static_cast<int>(0.5 * cfg.globalCells.z));
    // Shifting discards solidified material: liquid fraction must not drift
    // to zero, and the state stays physical.
    const auto f1 = s.phaseFractions();
    EXPECT_GT(f1[LIQ], 0.4);
    EXPECT_LT(f1[LIQ], 1.0);
    EXPECT_LT(s.maxMuDeviation(), 5.0);

    // Solid below the front persists in the window.
    EXPECT_GT(f1[0] + f1[1] + f1[2], 0.9 * (f0[0] + f0[1] + f0[2]) - 0.05);
}

TEST(Solver, WindowShiftPreservesSolutionInTrackedFrame) {
    // A manual shift must reproduce exactly the content one cell up.
    auto cfg = smallConfig();
    Solver s(cfg);
    s.initialize();
    s.run(10);

    // Record phi at a probe column before the shift.
    auto& blk = *s.localBlocks().front();
    std::vector<double> column;
    for (int z = 0; z < blk.size.z - 1; ++z)
        column.push_back(blk.phiSrc(5, 7, z + 1, LIQ));

    for (auto& b : s.localBlocks()) shiftDownOneCell(*b, s.forest(), s.system());

    for (int z = 0; z < blk.size.z - 1; ++z)
        EXPECT_EQ(blk.phiSrc(5, 7, z, LIQ), column[static_cast<std::size_t>(z)]);
    // Top slice is fresh melt.
    EXPECT_EQ(blk.phiSrc(5, 7, blk.size.z - 1, LIQ), 1.0);
}

TEST(Solver, FrontPositionAndFractionsAreRankCountInvariant) {
    auto cfg = smallConfig();
    double serialFront;
    std::array<double, N> serialFr{};
    {
        Solver s(cfg);
        s.initialize();
        s.run(20);
        serialFront = s.frontPosition();
        serialFr = s.phaseFractions();
    }
    cfg.blockSize = {32, 32, 12};
    vmpi::runParallel(4, [&](vmpi::Comm& comm) {
        Solver s(cfg, &comm);
        s.initialize();
        s.run(20);
        EXPECT_EQ(static_cast<double>(s.frontPosition()), serialFront);
        const auto fr = s.phaseFractions();
        for (int a = 0; a < N; ++a)
            EXPECT_NEAR(fr[static_cast<std::size_t>(a)],
                        serialFr[static_cast<std::size_t>(a)], 1e-12);
    });
}

TEST(Solver, TimeloopTimingsAreRecorded) {
    Solver s(smallConfig());
    s.initialize();
    s.run(3);
    const auto& timings = s.timeloop().timings();
    ASSERT_FALSE(timings.empty());
    bool sawPhiSweep = false;
    for (const auto& t : timings) {
        EXPECT_EQ(t.calls, 3);
        if (t.name == "phi-sweep") {
            sawPhiSweep = true;
            EXPECT_GT(t.seconds, 0.0);
        }
    }
    EXPECT_TRUE(sawPhiSweep);
}

TEST(Solver, KernelChoiceDoesNotChangePhysics) {
    // Production SIMD kernels vs scalar reference kernels over a full run:
    // same physics within accumulated rounding.
    auto cfg = smallConfig();
    cfg.phiKernel = PhiKernelKind::Basic;
    cfg.muKernel = MuKernelKind::Basic;
    Solver ref(cfg);
    ref.initialize();
    ref.run(30);

    cfg.phiKernel = SolverConfig{}.phiKernel;
    cfg.muKernel = SolverConfig{}.muKernel;
    Solver opt(cfg);
    opt.initialize();
    opt.run(30);

    EXPECT_LT(Snapshot::take(ref).maxDiff(Snapshot::take(opt)), 1e-7);
}

TEST(Solver, MultiCellPhiKernelIsBytewiseCellwiseOnDevelopedJunctions) {
    // A solidify state with 8-cell grains develops three- and four-phase
    // junctions within a few dozen steps, where every term of the phi update
    // is live. The production multi-cell phi body (SimdFourCell) must
    // reproduce the cellwise SimdTzStagCut byte for byte over the run, phi
    // and mu (32 cells: four whole 8-wide groups per row). The per-target
    // sweeps are pinned in tests/test_phi_kernels.cpp.
    SolverConfig cfg;
    cfg.globalCells = {32, 32, 32};
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 20.0;
    cfg.init.fillHeight = 20;
    cfg.init.seedsPerArea = 8;
    cfg.threads = 2;
    constexpr int kSteps = 40;

    cfg.phiKernel = PhiKernelKind::SimdTzStagCut;
    Solver ref(cfg);
    ref.initialize();
    ref.run(kSteps);
    const Snapshot want = Snapshot::take(ref);

    long long triple = 0, quadruple = 0;
    for (std::size_t c = 0; c < want.phi.size(); c += N) {
        int present = 0;
        for (int a = 0; a < N; ++a) present += want.phi[c + a] > 1e-3;
        triple += present >= 3;
        quadruple += present == 4;
    }
    EXPECT_GT(triple, 1000) << "state should hold three-phase junctions";
    EXPECT_GT(quadruple, 1000) << "state should hold four-phase junctions";

    cfg.phiKernel = PhiKernelKind::SimdFourCell;
    Solver tst(cfg);
    tst.initialize();
    tst.run(kSteps);
    EXPECT_TRUE(Snapshot::take(tst).bitwiseEqual(want));
}

} // namespace
} // namespace tpf::core
