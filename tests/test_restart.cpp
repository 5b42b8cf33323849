/// The exact-restart contract (the acceptance test of the restart pipeline):
/// running 2N steps produces a checkpoint bitwise identical to running N
/// steps, restarting from the checkpoint, and running N more — for every
/// ranks x threads combination, with the moving window active and the
/// production mu-overlap communication hiding on. Plus the failure paths:
/// a missing or truncated per-rank file must abort *all* ranks with a clear
/// message instead of hanging the healthy ranks in a collective.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "analysis/observers.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() / ("tpf_restart_" + tag + "_" +
                                            std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/// Window-heavy configuration: the solid fill starts far above the window
/// trigger, so the capped shift loop (at most NZ/4 cells per check) drains
/// it across several window checks — some before step N, some after — which
/// makes the restarted run replay shifts it did not itself initiate.
core::SolverConfig windowConfig(int ranks, int threads) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 32};
    if (ranks > 1) cfg.blockSize = {16, 16, 32 / ranks};
    cfg.threads = threads;
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 12.0;
    cfg.init.fillHeight = 26;
    cfg.window.enabled = true;
    cfg.window.triggerFraction = 0.2; // trigger z = 6.4
    cfg.window.checkEvery = 8;
    cfg.overlapMu = true; // the paper's production communication hiding
    return cfg;
}

/// A shape whose start-up split is not the uniform one: the solid sits in the
/// bottom fifth of a 16x16x64 domain, so initialize() gives rank 0 fewer
/// planes (core/zsplit.h). Same window settings as windowConfig, with the
/// trigger lowered to shift the lower front.
core::SolverConfig balancedConfig(int ranks, int threads) {
    core::SolverConfig cfg = windowConfig(ranks, threads);
    cfg.globalCells = {16, 16, 64};
    if (ranks > 1) cfg.blockSize = {16, 16, 64 / ranks};
    cfg.init.fillHeight = 12;
    cfg.window.triggerFraction = 0.1; // trigger z = 6.4
    return cfg;
}

std::string readAll(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Run the straight 2N-step reference and the N + restart + N split run with
/// identical configuration; both final checkpoints land in \p dir.
void runStraightAndSplit(const core::SolverConfig& cfg, int ranks, int steps2N,
                         const std::string& straightDir,
                         const std::string& midDir,
                         const std::string& splitDir,
                         double* windowOffsetAtMid,
                         double* windowOffsetAtEnd,
                         std::vector<int>* heights = nullptr) {
    const int stepsN = steps2N / 2;
    auto body = [&](vmpi::Comm* comm) {
        // Straight reference: 2N uninterrupted steps.
        core::Solver a(cfg, comm);
        a.initialize();
        a.run(steps2N);
        io::saveCheckpoint(straightDir, a);
        if (!comm || comm->isRoot())
            *windowOffsetAtEnd = a.windowOffsetCells();

        // Split run: N steps, checkpoint, fresh solver restarts, N more.
        core::Solver b(cfg, comm);
        b.initialize();
        b.run(stepsN);
        io::saveCheckpoint(midDir, b);
        if (!comm || comm->isRoot())
            *windowOffsetAtMid = b.windowOffsetCells();

        // The fresh solver starts from the uniform split and must adopt the
        // checkpoint's heights.
        core::Solver c(cfg, comm);
        io::loadCheckpoint(midDir, c);
        EXPECT_EQ(c.forest().layerHeights(), b.forest().layerHeights());
        c.run(steps2N - stepsN);
        io::saveCheckpoint(splitDir, c);
        if (heights && (!comm || comm->isRoot()))
            *heights = a.forest().layerHeights();
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
}

TEST(RestartEquivalence, SplitRunMatchesStraightRunBitwise) {
    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            TempDir dir("eq_r" + std::to_string(ranks) + "_t" +
                        std::to_string(threads));
            const std::string straight = (dir.path / "straight").string();
            const std::string mid = (dir.path / "mid").string();
            const std::string split = (dir.path / "split").string();

            const core::SolverConfig cfg = windowConfig(ranks, threads);
            double offMid = -1.0, offEnd = -1.0;
            runStraightAndSplit(cfg, ranks, /*steps2N=*/24, straight, mid,
                                split, &offMid, &offEnd);

            // The scenario must actually exercise the window on both sides
            // of the restart, otherwise this test proves nothing.
            EXPECT_GT(offMid, 0.0) << "no window shift before the restart";
            EXPECT_GT(offEnd, offMid) << "no window shift after the restart";

            const io::CheckpointDiff d =
                io::compareCheckpoints(straight, split);
            EXPECT_TRUE(d.identical) << d.message();

            // Stronger than field equality: the files (headers, clocks,
            // CRCs, payloads) must be byte-for-byte identical.
            for (int r = 0; r < ranks; ++r) {
                const std::string name =
                    "rank_" + std::to_string(r) + ".tpfchk";
                EXPECT_EQ(readAll(fs::path(straight) / name),
                          readAll(fs::path(split) / name))
                    << "rank file " << name << " differs";
            }
        }
    }
}

/// The restart of a balanced decomposition (the path of tpf-bench's
/// restart-io): initialize() picks unequal heights, the checkpoint records
/// them in its block headers, and a freshly constructed solver re-lays
/// itself to them on load and continues bitwise like the straight run.
TEST(RestartEquivalence, BalancedSplitRestartsBitwise) {
    for (const int ranks : {2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            TempDir dir("bal_r" + std::to_string(ranks) + "_t" +
                        std::to_string(threads));
            const std::string straight = (dir.path / "straight").string();
            const std::string mid = (dir.path / "mid").string();
            const std::string split = (dir.path / "split").string();

            double offMid = -1.0, offEnd = -1.0;
            std::vector<int> heights;
            runStraightAndSplit(balancedConfig(ranks, threads), ranks,
                                /*steps2N=*/24, straight, mid, split, &offMid,
                                &offEnd, &heights);
            ASSERT_EQ(heights.size(), static_cast<std::size_t>(ranks));
            EXPECT_NE(heights,
                      std::vector<int>(static_cast<std::size_t>(ranks),
                                       64 / ranks))
                << "the split is uniform: this leg tests nothing new";
            EXPECT_GT(offMid, 0.0) << "no window shift before the restart";

            const io::CheckpointDiff d =
                io::compareCheckpoints(straight, split);
            EXPECT_TRUE(d.identical) << d.message();
            for (int r = 0; r < ranks; ++r) {
                const std::string name =
                    "rank_" + std::to_string(r) + ".tpfchk";
                EXPECT_EQ(readAll(fs::path(straight) / name),
                          readAll(fs::path(split) / name))
                    << "rank file " << name << " differs";
            }
            const io::CheckpointMeta meta = io::readCheckpointMeta(mid);
            ASSERT_EQ(meta.rankZ.size(), heights.size());
            for (std::size_t r = 0; r < heights.size(); ++r)
                EXPECT_EQ(meta.rankZ[r][1] - meta.rankZ[r][0], heights[r]);
        }
    }
}

/// Block origins that do not tile the solver's domain on its ranks are a
/// pointed error naming both layouts, raised on every rank before any
/// state is touched.
TEST(RestartEquivalence, TamperedBlockOriginsNameBothLayouts) {
    TempDir dir("tampered");
    const std::string chk = (dir.path / "chk").string();
    const core::SolverConfig cfg = balancedConfig(2, 1);
    std::vector<int> heights;
    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        core::Solver s(cfg, &comm);
        s.initialize();
        io::saveCheckpoint(chk, s);
        if (comm.isRoot()) heights = s.forest().layerHeights();
    });
    ASSERT_EQ(heights.size(), 2u);

    // Move rank 1's block up by 4 planes: originZ is the seventh int32 of
    // the block header, which follows the 88-byte file header.
    const fs::path f1 = fs::path(chk) / "rank_1.tpfchk";
    std::string bytes = readAll(f1);
    std::int32_t originZ = 0;
    std::memcpy(&originZ, bytes.data() + 88 + 24, sizeof originZ);
    ASSERT_EQ(originZ, heights[0]);
    originZ += 4;
    std::memcpy(bytes.data() + 88 + 24, &originZ, sizeof originZ);
    std::ofstream(f1, std::ios::binary | std::ios::trunc) << bytes;

    const std::string fileZ = "[0," + std::to_string(heights[0]) + ") [" +
                              std::to_string(heights[0] + 4) + ",68)";
    try {
        vmpi::runParallel(2, [&](vmpi::Comm& comm) {
            core::Solver s(cfg, &comm);
            io::loadCheckpoint(chk, s);
            FAIL() << "untiled z-extents must throw on all ranks";
        });
        FAIL() << "runParallel must rethrow the collective CheckpointError";
    } catch (const io::CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("do not tile"), std::string::npos) << what;
        EXPECT_NE(what.find(fileZ), std::string::npos) << what;
        EXPECT_NE(what.find("[0,32) [32,64)"), std::string::npos) << what;
    }
}

TEST(RestartEquivalence, WindowStateSurvivesRoundTrip) {
    for (const int ranks : {1, 2, 4}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        TempDir dir("win_r" + std::to_string(ranks));
        const std::string chk = (dir.path / "chk").string();

        const core::SolverConfig cfg = windowConfig(ranks, /*threads=*/1);
        double savedOffset = -1.0;
        int savedFront = -1;
        long long savedSteps = -1;
        double savedTime = -1.0;

        auto body = [&](vmpi::Comm* comm) {
            core::Solver s(cfg, comm);
            s.initialize();
            s.run(10); // window check at step 0 and 8 -> offset > 0
            const double off = s.windowOffsetCells();
            const int front = s.frontPosition();
            io::saveCheckpoint(chk, s);

            core::Solver t(cfg, comm);
            io::loadCheckpoint(chk, t);
            const double off2 = t.windowOffsetCells();
            const int front2 = t.frontPosition();
            if (!comm || comm->isRoot()) {
                savedOffset = off;
                savedFront = front;
                savedSteps = t.stepsDone();
                savedTime = t.time();
                EXPECT_EQ(off2, off);
                EXPECT_EQ(front2, front);
            }
        };
        if (ranks == 1)
            body(nullptr);
        else
            vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });

        EXPECT_GT(savedOffset, 0.0) << "scenario did not shift the window";
        EXPECT_GE(savedFront, 0);
        EXPECT_EQ(savedSteps, 10);
        EXPECT_NEAR(savedTime, 10 * cfg.model.dt, 1e-12);
    }
}

/// Analysis-series continuity across a restart: N steps + restart + N more
/// must produce byte-for-byte the CSV an uninterrupted 2N-step run writes —
/// the restarted pipeline resumes the existing file (dropping nothing here:
/// the checkpoint is the last sampled step) and the cadence stays on the
/// global step grid.
TEST(RestartEquivalence, AnalysisSeriesContinuesAcrossRestart) {
    for (const int ranks : {1, 2}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        TempDir dir("series_r" + std::to_string(ranks));
        const std::string straightCsv = (dir.path / "straight.csv").string();
        const std::string splitCsv = (dir.path / "split.csv").string();
        const std::string mid = (dir.path / "mid").string();

        const core::SolverConfig cfg = windowConfig(ranks, /*threads=*/1);
        constexpr int kEvery = 4;
        constexpr int kStepsN = 12;

        auto makePipeline = [] {
            analysis::Pipeline p;
            for (const auto& n : analysis::observerNames())
                p.add(analysis::makeObserver(n));
            return p;
        };

        auto body = [&](vmpi::Comm* comm) {
            const bool isRoot = !comm || comm->isRoot();

            // Straight reference: 2N uninterrupted steps, one series.
            core::Solver a(cfg, comm);
            analysis::Pipeline pa = makePipeline();
            if (isRoot) pa.createCsv(straightCsv);
            pa.attach(a, kEvery);
            a.initialize();
            pa.sample(a, 0);
            a.run(2 * kStepsN);

            // Split run: N steps into the same kind of series, checkpoint,
            // then a fresh solver + pipeline resumes both.
            core::Solver b(cfg, comm);
            analysis::Pipeline pb = makePipeline();
            if (isRoot) pb.createCsv(splitCsv);
            pb.attach(b, kEvery);
            b.initialize();
            pb.sample(b, 0);
            b.run(kStepsN);
            io::saveCheckpoint(mid, b);

            core::Solver c(cfg, comm);
            io::loadCheckpoint(mid, c);
            analysis::Pipeline pc = makePipeline();
            if (isRoot) pc.resumeCsv(splitCsv, c.stepsDone());
            pc.attach(c, kEvery);
            c.run(kStepsN);
        };
        if (ranks == 1)
            body(nullptr);
        else
            vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });

        const io::CsvSeries straight = io::readCsvSeries(straightCsv);
        ASSERT_EQ(straight.rows.size(), 7u); // steps 0,4,...,24
        EXPECT_GT(std::stod(straight.rows.back()[2]), 0.0)
            << "no window shift during the run — the scenario is too tame";

        EXPECT_EQ(readAll(straightCsv), readAll(splitCsv))
            << io::compareCsvSeries(straightCsv, splitCsv).message;
    }
}

/// A rank whose file is missing must not leave the other ranks hanging in
/// the restore's collective ghost exchange: every rank detects the failure
/// via the load's status agreement and throws. runParallel then joins all
/// ranks and rethrows — the fact that this test *returns* (instead of
/// timing out) is the regression check for the collective-hang bug.
TEST(RestartEquivalence, MissingRankFileAbortsAllRanks) {
    TempDir dir("missing");
    const std::string chk = (dir.path / "chk").string();

    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 24};
    cfg.blockSize = {16, 16, 12};
    cfg.init.fillHeight = 8;
    cfg.model.temp.zEut0 = 10.0;

    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        core::Solver s(cfg, &comm);
        s.initialize();
        io::saveCheckpoint(chk, s);
    });
    fs::remove(fs::path(chk) / "rank_1.tpfchk");

    try {
        vmpi::runParallel(2, [&](vmpi::Comm& comm) {
            core::Solver s(cfg, &comm);
            io::loadCheckpoint(chk, s);
            FAIL() << "load with a missing rank file must throw on all ranks";
        });
        FAIL() << "runParallel must rethrow the collective CheckpointError";
    } catch (const io::CheckpointError& e) {
        const std::string what = e.what();
        // Depending on which rank's exception is rethrown first, the text is
        // either the local diagnosis or the collective notification.
        EXPECT_TRUE(what.find("cannot open") != std::string::npos ||
                    what.find("another rank") != std::string::npos)
            << what;
    }
}

TEST(RestartEquivalence, TruncatedRankFileAbortsAllRanks) {
    TempDir dir("truncated");
    const std::string chk = (dir.path / "chk").string();

    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 24};
    cfg.blockSize = {16, 16, 12};
    cfg.init.fillHeight = 8;
    cfg.model.temp.zEut0 = 10.0;

    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        core::Solver s(cfg, &comm);
        s.initialize();
        io::saveCheckpoint(chk, s);
    });
    const fs::path f1 = fs::path(chk) / "rank_1.tpfchk";
    fs::resize_file(f1, fs::file_size(f1) / 3);

    try {
        vmpi::runParallel(2, [&](vmpi::Comm& comm) {
            core::Solver s(cfg, &comm);
            io::loadCheckpoint(chk, s);
            FAIL() << "truncated rank file must abort the load on all ranks";
        });
        FAIL() << "runParallel must rethrow the collective CheckpointError";
    } catch (const io::CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.find("truncated") != std::string::npos ||
                    what.find("another rank") != std::string::npos)
            << what;
    }
}

} // namespace
} // namespace tpf
