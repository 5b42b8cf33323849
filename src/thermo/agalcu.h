#pragma once
/// \file agalcu.h
/// The Ag-Al-Cu ternary eutectic dataset.
///
/// The paper derives parabolic fits from the Calphad assessment of
/// Witusiewicz et al. (J. Alloys Compd. 2004/2005); the exact fit
/// coefficients are not published. This dataset reproduces the published
/// *equilibrium topology* that the solver actually consumes:
///   - eutectic temperature T_E = 773.6 K (≈ 500.45 °C),
///   - eutectic liquid composition near Ag 18 at.%, Al 69 at.%, Cu 13 at.%
///     (independent coordinates c = (c_Ag, c_Cu)),
///   - three solid phases Al2Cu (theta), Ag2Al (zeta), fcc-Al (alpha) with
///     compositions near their stoichiometries / solubility limits,
///   - similar solid phase fractions at the eutectic (lever rule gives
///     roughly 37% Al2Cu / 24% Ag2Al / 39% fcc-Al here),
///   - solids thermodynamically favoured below T_E (positive m), liquid
///     above.
/// Energies are non-dimensionalized (the solver works in lattice units).

#include "thermo/system.h"

namespace tpf::thermo {

/// Phase indices of the Ag-Al-Cu system as used throughout the library.
enum AgAlCuPhase : int {
    kAl2Cu = 0, ///< theta phase
    kAg2Al = 1, ///< zeta phase
    kFccAl = 2, ///< alpha (Al-rich fcc) phase
    kLiquid = kLiquidPhase,
};

/// Construct the Ag-Al-Cu system.
/// \param undercoolingStrength scales the m coefficients (driving force per
///        Kelvin of undercooling); the default is tuned for stable growth at
///        the default ModelParams.
TernarySystem makeAgAlCu(double undercoolingStrength = 1.0);

} // namespace tpf::thermo
