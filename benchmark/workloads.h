#pragma once
/// \file workloads.h
/// The four fixed, fully specified problems tpf-bench measures. Why each
/// exists, and which layer it isolates, is recorded in README.md and in
/// BENCHMARK.json; the numbers live here only.

#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.h"
#include "vmpi/transport.h"

namespace tpfbench {

/// Untimed steps at the start of every rep (first touch of the fields and
/// of the hook paths' scratch memory).
inline constexpr int kWarmupSteps = 10;
/// Step of the checkpoint a Restart workload resumes from.
inline constexpr int kRestartStep = 10;

enum class InitKind {
    Voronoi, ///< Solver::initialize(): seeded melt, takes --seed
    Liquid,  ///< pure melt (fillScenario), independent of the seed
    Restart, ///< io::loadCheckpoint of a checkpoint the run writes first
};

struct Workload {
    std::string name;
    tpf::Int3 cells;
    int ranks = 1;
    int threads = 1;
    tpf::vmpi::TransportKind transport = tpf::vmpi::TransportKind::Thread;
    InitKind init = InitKind::Voronoi;
    int fillHeight = -1; ///< Voronoi solid height (-1: 3/16 of NZ)
    double zEut0 = -1.0; ///< initial eutectic isotherm (-1: 0.375 NZ)
    int grainCells = 0;  ///< Voronoi grain width in cells (0: the default)
    bool window = false;
    int analyzeEvery = 0; ///< in-situ analysis cadence in steps (0: off)
    int meshEvery = 0;    ///< mesh extraction cadence (0: off)
    int checkpointEvery = 0;
    int timedSteps = 0; ///< per rep, after the warm-up

    long long numCells() const {
        return static_cast<long long>(cells.x) * cells.y * cells.z;
    }
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* findWorkload(const std::string& name);

/// The same workload at a size that runs in about a second: the --smoke
/// run exercises every code path, not the performance.
Workload tinyVariant(const Workload& w);

/// Solver configuration of a workload. Kernel kinds, schedule and dispatch
/// target stay at their defaults, so a change of default is measured.
tpf::core::SolverConfig makeConfig(const Workload& w, std::uint64_t seed);

} // namespace tpfbench
