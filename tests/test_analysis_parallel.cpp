/// The rank-invariance contract of the in-situ analysis pipeline: the
/// analysis CSV of the solidify scenario is bitwise identical for every
/// ranks x threads combination in {1,2,4} x {1,4}, with the moving window
/// active and the production mu-overlap communication hiding on. Also pins
/// the gather layer itself: planes assembled from rank tiles must equal the
/// serial extraction.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "analysis/gather.h"
#include "analysis/observers.h"
#include "core/solver.h"
#include "io/csv_writer.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("tpf_analysis_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

std::string readAll(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Window-heavy solidify configuration (same shape as test_restart's): the
/// solid fill sits far above the trigger so shifts happen during the run,
/// exercising the window-coordinate path of the observers.
core::SolverConfig analysisConfig(int ranks, int threads) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 32};
    if (ranks > 1) cfg.blockSize = {16, 16, 32 / ranks};
    cfg.threads = threads;
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 12.0;
    cfg.init.fillHeight = 26;
    cfg.window.enabled = true;
    cfg.window.triggerFraction = 0.2;
    cfg.window.checkEvery = 8;
    cfg.overlapMu = true;
    return cfg;
}

/// A shape whose start-up split is not the uniform one (the solid in the
/// bottom fifth of 16x16x64, see core/zsplit.h), with the trigger lowered
/// to shift the lower front.
core::SolverConfig balancedConfig(int ranks, int threads) {
    core::SolverConfig cfg = analysisConfig(ranks, threads);
    cfg.globalCells = {16, 16, 64};
    if (ranks > 1) cfg.blockSize = {16, 16, 64 / ranks};
    cfg.init.fillHeight = 12;
    cfg.window.triggerFraction = 0.1;
    return cfg;
}

/// Run the solidify scenario with the full pipeline streaming to \p csv;
/// \p heights receives the per-rank heights after initialize().
void runWithPipeline(const core::SolverConfig& cfg, int ranks, int steps,
                     int every, const std::string& csv,
                     std::vector<int>* heights = nullptr) {
    auto body = [&](vmpi::Comm* comm) {
        core::Solver solver(cfg, comm);
        analysis::Pipeline pipeline;
        for (const auto& n : analysis::observerNames())
            pipeline.add(analysis::makeObserver(n));
        if (!comm || comm->isRoot()) pipeline.createCsv(csv);
        pipeline.attach(solver, every);
        solver.initialize();
        if (heights && (!comm || comm->isRoot()))
            *heights = solver.forest().layerHeights();
        pipeline.sample(solver, 0);
        solver.run(steps);
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
}

TEST(AnalysisRankInvariance, CsvBitwiseIdenticalAcrossRanksAndThreads) {
    TempDir dir("invariance");
    std::string reference;
    double lastWindowOffset = -1.0;

    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const std::string csv =
                (dir.path / ("analysis_r" + std::to_string(ranks) + "_t" +
                             std::to_string(threads) + ".csv"))
                    .string();
            runWithPipeline(analysisConfig(ranks, threads), ranks,
                            /*steps=*/16, /*every=*/4, csv);

            const std::string content = readAll(csv);
            ASSERT_FALSE(content.empty());
            if (reference.empty()) {
                reference = content;
                // The scenario must actually shift the window, otherwise
                // the "moving window on" part of the contract is untested.
                const io::CsvSeries s = io::readCsvSeries(csv);
                ASSERT_EQ(s.rows.size(), 5u); // steps 0, 4, 8, 12, 16
                lastWindowOffset =
                    std::stod(s.rows.back()[2]); // window_offset column
                EXPECT_GT(lastWindowOffset, 0.0)
                    << "no window shift during the run";
            } else if (content != reference) {
                // Byte equality is the contract; report the first divergent
                // cell instead of dumping both files.
                const std::string ref =
                    (dir.path / "analysis_r1_t1.csv").string();
                const io::CsvDiff d = io::compareCsvSeries(ref, csv);
                FAIL() << "analysis series diverged from ranks=1 threads=1: "
                       << d.message;
            }
        }
    }
}

TEST(AnalysisRankInvariance, CsvBitwiseIdenticalOnUnequalHeights) {
    TempDir dir("balanced");
    const std::string ref = (dir.path / "analysis_r1.csv").string();
    runWithPipeline(balancedConfig(1, 1), 1, /*steps=*/16, /*every=*/4, ref);
    const io::CsvSeries s = io::readCsvSeries(ref);
    ASSERT_EQ(s.rows.size(), 5u);
    EXPECT_GT(std::stod(s.rows.back()[2]), 0.0)
        << "no window shift during the run";
    const std::string reference = readAll(ref);

    for (const int ranks : {2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const std::string csv =
                (dir.path / ("analysis_r" + std::to_string(ranks) + "_t" +
                             std::to_string(threads) + ".csv"))
                    .string();
            std::vector<int> heights;
            runWithPipeline(balancedConfig(ranks, threads), ranks,
                            /*steps=*/16, /*every=*/4, csv, &heights);
            EXPECT_NE(heights,
                      std::vector<int>(static_cast<std::size_t>(ranks),
                                       64 / ranks))
                << "the split is uniform: this leg tests nothing new";
            if (readAll(csv) != reference)
                FAIL() << "analysis series diverged from ranks=1: "
                       << io::compareCsvSeries(ref, csv).message;
        }
    }
}

TEST(AnalysisGather, AssembledPlanesMatchSerialExtraction) {
    // 2-rank and 4-rank decompositions of a solidified state must assemble
    // exactly the planes the serial sweep extracts.
    const core::SolverConfig serialCfg = analysisConfig(1, 1);
    core::Solver serial(serialCfg);
    serial.initialize();
    serial.run(4);

    std::vector<std::vector<unsigned char>> serialPlanes;
    for (int phase = 0; phase < 3; ++phase) {
        auto p = analysis::gatherIndicatorPlanes(
            serial.localBlocks(), serial.forest(), nullptr, phase, 0,
            serialCfg.globalCells.z - 1);
        for (auto& pl : p) serialPlanes.push_back(std::move(pl));
    }
    const auto serialSums = analysis::gatherPlaneSums(
        serial.localBlocks(), serial.forest(), nullptr);

    for (const int ranks : {2, 4}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) {
            const core::SolverConfig cfg = analysisConfig(ranks, 1);
            core::Solver s(cfg, &comm);
            s.initialize();
            s.run(4);

            std::vector<std::vector<unsigned char>> planes;
            for (int phase = 0; phase < 3; ++phase) {
                auto p = analysis::gatherIndicatorPlanes(
                    s.localBlocks(), s.forest(), &comm, phase, 0,
                    cfg.globalCells.z - 1);
                for (auto& pl : p) planes.push_back(std::move(pl));
            }
            const auto sums =
                analysis::gatherPlaneSums(s.localBlocks(), s.forest(), &comm);
            if (comm.isRoot()) {
                ASSERT_EQ(planes.size(), serialPlanes.size());
                for (std::size_t i = 0; i < planes.size(); ++i)
                    EXPECT_EQ(planes[i], serialPlanes[i]) << "plane " << i;
                ASSERT_EQ(sums.size(), serialSums.size());
                for (std::size_t z = 0; z < sums.size(); ++z)
                    for (int a = 0; a < core::N; ++a)
                        EXPECT_EQ(sums[z][static_cast<std::size_t>(a)],
                                  serialSums[z][static_cast<std::size_t>(a)])
                            << "slice " << z << " phase " << a;
            } else {
                EXPECT_TRUE(planes.empty());
                EXPECT_TRUE(sums.empty());
            }
        });
    }
}

/// The restart path of the CSV writer used by tpf-sim --restart: rows after
/// the checkpoint step are dropped, the continuation appends seamlessly.
TEST(AnalysisRankInvariance, ResumeDropsRowsNewerThanTheCheckpoint) {
    TempDir dir("resume");
    const std::string csv = (dir.path / "analysis.csv").string();

    const core::SolverConfig cfg = analysisConfig(1, 1);
    // Original run: 16 steps sampled every 4 — but suppose its last
    // checkpoint was at step 8.
    runWithPipeline(cfg, 1, /*steps=*/16, /*every=*/4, csv);
    const io::CsvSeries full = io::readCsvSeries(csv);
    ASSERT_EQ(full.rows.size(), 5u);

    analysis::Pipeline p;
    for (const auto& n : analysis::observerNames())
        p.add(analysis::makeObserver(n));
    p.resumeCsv(csv, /*lastStep=*/8);
    const io::CsvSeries trimmed = io::readCsvSeries(csv);
    ASSERT_EQ(trimmed.rows.size(), 3u); // steps 0, 4, 8 kept
    EXPECT_EQ(trimmed.stepOf(2), 8);
}

} // namespace
} // namespace tpf
