#pragma once
/// \file voronoi.h
/// Initial condition: "solid nuclei at the bottom of a liquid filled domain
/// ... created by a Voronoi tesselation with respect to the given volume
/// fractions of the phases" (paper §2.1 / Figure 2).
///
/// Seeds are placed in the x-y plane with a deterministic RNG (identical on
/// every rank — the paper's setup phase computes global information once);
/// every cell below the fill height takes the phase of its nearest seed under
/// the periodic x-y metric, cells above are liquid. The phase of a seed is
/// drawn according to the target volume fractions.

#include <array>
#include <vector>

#include "core/regions.h"
#include "core/sim_block.h"
#include "thermo/system.h"

namespace tpf::core {

struct VoronoiConfig {
    int fillHeight = 12;     ///< solid fill height in cells (global z)
    int seedsPerArea = 0;    ///< 0: auto (one seed per ~12x12 cells)
    std::uint64_t seed = 42; ///< RNG seed (same on all ranks)
    /// Target volume fractions of the three solid phases; if all zero, the
    /// lever-rule fractions of \p sys are used.
    std::array<double, 3> fractions{0.0, 0.0, 0.0};
};

/// Fill phi/mu source fields (including ghosts) of \p b according to the
/// Voronoi initial condition. Deterministic given (cfg, global domain). The
/// nearest-seed search runs once per (x, y) column, not once per cell.
void initVoronoi(SimBlock& b, const BlockForest& bf, const VoronoiConfig& cfg,
                 const thermo::TernarySystem& sys);

/// Region counts (classifyCell) of every global z-plane of the Voronoi
/// initial condition, bottom to top, computed from the same column table
/// as initVoronoi without allocating fields: the input of the start-up
/// z-split (core/zsplit.h).
std::vector<RegionStats> voronoiPlaneRegions(Int3 globalCells,
                                             std::array<bool, 3> periodic,
                                             const VoronoiConfig& cfg,
                                             const thermo::TernarySystem& sys);

} // namespace tpf::core
