#include "rep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "core/regions.h"
#include "io/checkpoint.h"
#include "util/crc32.h"
#include "vmpi/comm.h"

namespace tpfbench {

namespace {

using namespace tpf;
namespace fs = std::filesystem;

double dirBytes(const std::string& dir) {
    double bytes = 0.0;
    for (const auto& e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
    return bytes;
}

std::vector<std::string> splitCsv(const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream in(line);
    std::string cell;
    while (std::getline(in, cell, ',')) cells.push_back(cell);
    return cells;
}

/// The last data row of an analysis CSV, after checking that it is finite
/// and that the four phase fractions sum to one. The sum is a property of
/// the model (the order parameters live on the Gibbs simplex), so a rep
/// whose row fails it is wrong whatever the recorded digest says.
std::string checkedLastRow(const std::string& csvPath) {
    std::ifstream in(csvPath);
    std::string line, header, last;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        if (header.empty())
            header = line;
        else
            last = line;
    }
    if (last.empty()) throw std::runtime_error("no row in " + csvPath);

    const std::vector<std::string> names = splitCsv(header);
    const std::vector<std::string> cells = splitCsv(last);
    if (names.size() != cells.size())
        throw std::runtime_error("malformed row in " + csvPath);
    double fractionSum = 0.0;
    int fractions = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double v = std::strtod(cells[i].c_str(), nullptr);
        if (!std::isfinite(v))
            throw std::runtime_error("non-finite " + names[i] + " in the " +
                                     "final analysis row");
        if (names[i] == "frac_s0" || names[i] == "frac_s1" ||
            names[i] == "frac_s2" || names[i] == "frac_liq") {
            fractionSum += v;
            ++fractions;
        }
    }
    if (fractions != 4 || std::abs(fractionSum - 1.0) > 1e-9)
        throw std::runtime_error("phase fractions of the final analysis row "
                                 "do not sum to 1: " + last);
    return last;
}

void rankBody(vmpi::Comm& comm, const RepSpec& spec, double tSpawn,
              RepResult& res) {
    const Workload& w = *spec.workload;
    const bool root = comm.isRoot();
    SpanLog log;
    SpanLog* trace = spec.traced ? &log : nullptr;

    // Setup: what a user waits for before the first step.
    if (trace) trace->begin("setup");
    core::Solver solver(makeConfig(w, spec.seed), &comm);
    switch (w.init) {
    case InitKind::Voronoi:
        solver.initialize();
        break;
    case InitKind::Liquid:
        for (auto& b : solver.localBlocks())
            core::fillScenario(*b, core::Scenario::Liquid, solver.system(),
                               solver.config().model.eps);
        solver.restore(/*time=*/0.0, /*windowOffset=*/0.0);
        break;
    case InitKind::Restart:
        io::loadCheckpoint(spec.restartBase, solver);
        break;
    }
    comm.barrier();
    if (trace) trace->end();
    if (root) res.setupS = now() - tSpawn;

    // The in-situ hooks, registered by the benchmark so that it times each
    // call itself; they do exactly what Pipeline::attach and
    // MeshObserver::attach register.
    analysis::Pipeline pipeline = analysis::Pipeline::makeDefault();
    if (w.analyzeEvery > 0) {
        if (root) pipeline.createCsv(spec.dir + "/analysis.csv");
        solver.addPostStepHook("bench-analysis", [&](long long step) {
            if (step % w.analyzeEvery != 0) return;
            SpanScope span(trace, "analysis");
            pipeline.sample(solver, step);
        });
    }
    std::unique_ptr<analysis::MeshObserver> mesh;
    if (w.meshEvery > 0) {
        analysis::MeshObserver::Options mo;
        mo.dir = spec.dir + "/mesh";
        mesh = std::make_unique<analysis::MeshObserver>(mo);
        mesh->create(root);
        solver.addPostStepHook("bench-mesh", [&](long long step) {
            if (step % w.meshEvery != 0) return;
            SpanScope span(trace, "mesh");
            mesh->sample(solver, step);
        });
    }

    {
        SpanScope span(trace, "warmup");
        solver.run(kWarmupSteps);
    }

    const std::size_t sent0 =
        solver.phiExchange().bytesSent() + solver.muExchange().bytesSent();
    const double written0 = root ? dirBytes(spec.dir) : 0.0;
    comm.barrier();
    const double t0 = now();
    if (trace) trace->begin("rep");
    for (int done = 0; done < w.timedSteps;) {
        // Untraced reps step in as few run() calls as the checkpoint
        // cadence allows; traced reps step one at a time.
        long long n = spec.traced ? 1 : w.timedSteps - done;
        if (const long long every = w.checkpointEvery; every > 0) {
            const long long s = solver.stepsDone();
            n = std::min(n, (s / every + 1) * every - s);
        }
        SpanScope span(trace, "step");
        solver.run(static_cast<int>(n));
        if (w.checkpointEvery > 0 &&
            solver.stepsDone() % w.checkpointEvery == 0) {
            SpanScope ckpt(trace, "checkpoint");
            char name[48];
            std::snprintf(name, sizeof name, "/checkpoint_step%06lld",
                          solver.stepsDone());
            io::saveCheckpoint(spec.dir + name, solver);
        }
        done += static_cast<int>(n);
    }
    if (trace) trace->end();
    comm.barrier();
    const double wall = now() - t0;

    const long long sent = static_cast<long long>(
        solver.phiExchange().bytesSent() + solver.muExchange().bytesSent() -
        sent0);
    const long long sentAll = comm.allreduceSumLL(sent);
    if (root) {
        res.wallS = wall;
        res.mlups = static_cast<double>(w.numCells()) * w.timedSteps / wall /
                    1e6;
        res.outputBytes = dirBytes(spec.dir) - written0;
        res.exchangeBytes = static_cast<double>(sentAll);
    }

    {
        // Output check, outside the timed region: the final analysis row is
        // bitwise identical for any decomposition, so its CRC depends only
        // on the workload and the seed.
        // The row is read by runRep once the ranks are done, so that a bad
        // row cannot strand the other ranks in the probes' collectives.
        SpanScope span(trace, "digest");
        analysis::Pipeline check = analysis::Pipeline::makeDefault();
        if (root) check.createCsv(spec.dir + "/digest.csv");
        check.sample(solver, solver.stepsDone());
    }

    if (!spec.traced) return;

    RankProbes probes;
    if (spec.probes) {
        SpanScope span(trace, "probes");
        runRankProbes(comm, solver, spec.dir, trace, probes);
    }
    const auto blobs = comm.gatherAllBytes(log.serialize());
    if (!root) return;

    res.probes = probes;
    for (const auto& b : blobs)
        res.rankSpans.push_back(SpanLog::deserialize(b));
}

} // namespace

RepResult runRep(const RepSpec& spec) {
    RepResult res;
    try {
        fs::remove_all(spec.dir);
        fs::create_directories(spec.dir);
        const double tSpawn = now();
        vmpi::runParallel(spec.workload->transport, spec.workload->ranks,
                          [&](vmpi::Comm& comm) {
                              rankBody(comm, spec, tSpawn, res);
                          });
        res.digestRow = checkedLastRow(spec.dir + "/digest.csv");
        res.digest = util::crc32(res.digestRow.data(), res.digestRow.size());
        res.ok = true;
    } catch (const std::exception& e) {
        res.ok = false;
        res.error = e.what();
    }
    std::error_code ec;
    fs::remove_all(spec.dir, ec);
    return res;
}

void writeRestartBase(const Workload& w, std::uint64_t seed,
                      const std::string& path) {
    vmpi::runParallel(w.transport, w.ranks, [&](vmpi::Comm& comm) {
        core::Solver solver(makeConfig(w, seed), &comm);
        solver.initialize();
        solver.run(kRestartStep);
        io::saveCheckpoint(path, solver);
    });
}

} // namespace tpfbench
