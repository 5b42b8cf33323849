/// Per-stage cost of the in-situ mesh-extraction pipeline (io/mesh_pipeline.h):
/// extract / simplify / gather+stitch wall time per streamed frame (one frame
/// = all three phase surfaces of a solidifying 32x32x128 Voronoi melt (production-shaped: z-long, the geometry the moving-window runs use)) across
/// ranks x threads decompositions, plus the in-situ overhead fraction at the
/// production cadence of one frame every 100 steps — the budget the paper's
/// I/O-reduction argument rests on (extraction must be cheap next to the
/// solver, §3.2).
///
/// With --json <path> the measurements are upserted into the versioned
/// BENCH_<n>.json trajectory (perf/bench_json.h); tests/test_perf.cpp gates
/// the committed file (entries present, overhead fraction < 0.1).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.h"
#include "io/mesh_pipeline.h"
#include "perf/bench_json.h"
#include "perf/perf.h"
#include "util/table.h"
#include "vmpi/comm.h"

using namespace tpf;

namespace {

constexpr int kWarmupSteps = 8;
constexpr int kTimedSteps = 24;
constexpr int kFrames = 5;

struct Result {
    double extractMs = 0.0;  ///< per frame, summed over this rank's chunks
    double simplifyMs = 0.0; ///< per frame
    double gatherMs = 0.0;   ///< per frame, incl. the root-side stitch
    double stepMs = 0.0;     ///< one solver step
};

core::SolverConfig meshBenchConfig(int ranks, int threads) {
    core::SolverConfig cfg;
    cfg.globalCells = {32, 32, 128};
    if (ranks > 1) cfg.blockSize = {32, 32, 128 / ranks};
    cfg.threads = threads;
    return cfg;
}

/// One decomposition: warm the solver into a developed microstructure, time
/// plain stepping, then time kFrames full-pipeline extractions.
Result measure(int ranks, int threads) {
    Result res;
    auto body = [&](vmpi::Comm* comm) {
        core::Solver solver(meshBenchConfig(ranks, threads), comm);
        solver.initialize();
        solver.run(kWarmupSteps);

        const double t0 = perf::now();
        solver.run(kTimedSteps);
        const double stepSec = (perf::now() - t0) / kTimedSteps;

        io::MeshPipelineTimings tm;
        io::MeshPipelineOptions opt;
        opt.pool = solver.pool();
        const std::vector<int> phases{0, 1, 2};
        for (int frame = 0; frame < kFrames; ++frame)
            io::extractGlobalPhaseSurface(solver.localBlocks(),
                                          solver.forest(), comm, phases, opt,
                                          &tm);
        if (!comm || comm->isRoot()) {
            res.extractMs = tm.extractSec / kFrames * 1e3;
            res.simplifyMs = tm.simplifySec / kFrames * 1e3;
            res.gatherMs = tm.gatherSec / kFrames * 1e3;
            res.stepMs = stepSec * 1e3;
        }
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
    return res;
}

} // namespace

int main(int argc, char** argv) {
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
            return 2;
        }
    }

    std::printf("== In-situ mesh pipeline, 32x32x128 solidify, 3 phases, "
                "%d frames ==\n\n",
                kFrames);

    Table t({"ranks", "threads", "extract [ms]", "simplify [ms]",
                   "gather [ms]", "frame [ms]", "step [ms]"});
    std::vector<perf::BenchEntry> entries;
    double overheadAt100 = -1.0;
    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            const Result r = measure(ranks, threads);
            const double frameMs = r.extractMs + r.simplifyMs + r.gatherMs;
            t.addRow({std::to_string(ranks), std::to_string(threads),
                      Table::num(r.extractMs, 3),
                      Table::num(r.simplifyMs, 3),
                      Table::num(r.gatherMs, 3),
                      Table::num(frameMs, 3),
                      Table::num(r.stepMs, 3)});

            char v[64];
            std::snprintf(v, sizeof v, "extract r%d t%d ms/frame", ranks,
                          threads);
            entries.push_back({"bench_mesh", v, r.extractMs, 0.0});
            std::snprintf(v, sizeof v, "simplify r%d t%d ms/frame", ranks,
                          threads);
            entries.push_back({"bench_mesh", v, r.simplifyMs, 0.0});
            std::snprintf(v, sizeof v, "gather r%d t%d ms/frame", ranks,
                          threads);
            entries.push_back({"bench_mesh", v, r.gatherMs, 0.0});

            if (ranks == 1 && threads == 1)
                overheadAt100 = frameMs / (100.0 * r.stepMs);
        }
    }
    t.print();
    std::printf("\nin-situ overhead at one frame per 100 steps (r1 t1): "
                "%.4f%% of solver time\n",
                overheadAt100 * 100.0);
    entries.push_back(
        {"bench_mesh", "overhead fraction cadence100 r1 t1", overheadAt100,
         0.0});

    if (!jsonPath.empty()) {
        perf::upsertBenchFile(jsonPath, entries);
        std::printf("upserted %zu entries into %s\n", entries.size(),
                    jsonPath.c_str());
    }
    return 0;
}
