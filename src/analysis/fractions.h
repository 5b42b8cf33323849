#pragma once
/// \file fractions.h
/// Phase-fraction diagnostics: global fractions, per-z-slice profiles and
/// front position. Used by the examples to compare the grown microstructure
/// against the lever-rule expectation ("similar phase fractions" of the real
/// Ag-Al-Cu system).

#include <array>
#include <vector>

#include "core/sim_block.h"

namespace tpf::analysis {

/// Mean of each order parameter over the interior of \p phi.
std::array<double, core::N> phaseFractions(const Field<double>& phi);

/// Per-slice fractions: result[z][a] = mean of phi_a over slice z.
std::vector<std::array<double, core::N>> zProfile(const Field<double>& phi);

/// Solid fractions renormalized over the solid phases only, within the slab
/// z in [z0, z1] (useful to evaluate only fully solidified material).
std::array<double, 3> solidFractionsInSlab(const Field<double>& phi, int z0,
                                           int z1);

/// Highest z containing solid (liquid fraction <= 0.5 somewhere), -1 if none.
int frontZ(const Field<double>& phi);

} // namespace tpf::analysis
