#pragma once
/// \file zsplit.h
/// The start-up z-split of a z-slab forest (one block per rank spanning
/// x/y): per-rank heights chosen from the per-plane cost of the initial
/// condition, so the rank holding the solid and the front gets fewer planes
/// than the ranks holding liquid. The paper "experimented with various load
/// balancing techniques offered by the waLBerla framework"; this is the
/// static one. The split is a pure function of the configuration, so every
/// rank computes the same heights without a collective (docs/ARCHITECTURE.md
/// "Decomposition").

#include <vector>

#include "core/regions.h"
#include "core/slab_sweep.h"

namespace tpf::core {

/// Relative cost of one cell of each region class in a phi+mu sweep, liquid
/// = 100: cells classified in the initial condition, the sweep timed 100
/// steps later, on the default kernel kinds (docs/KERNELS.md "Cell-class
/// weights").
struct CellClassCost {
    int bulkLiquid = 100;
    int bulkSolid = 170;
    int interface = 320;
    int front = 440;
};
inline constexpr CellClassCost kCellClassCost{};

/// Cost of a set of cells under kCellClassCost.
long long regionCost(const RegionStats& s);

/// Split the planes of \p planeCost (one entry per global z, bottom to top)
/// into \p nranks contiguous runs of whole \p unit-plane units that minimise
/// the largest run cost; among the minimal splits, every boundary takes its
/// lowest position. Returns the runs' heights, bottom to top. Keeps the
/// uniform split (NZ / nranks each) when that is not on the unit grid,
/// which includes NZ / unit < nranks. NZ must be divisible by \p nranks.
std::vector<int> balancedZHeights(const std::vector<long long>& planeCost,
                                  int nranks, int unit = kSlabHeight);

} // namespace tpf::core
