#pragma once
/// \file regions.h
/// Cell/region classification (bulk B_a, diffuse interface I, solidification
/// front F, liquid L, solid S — section 2 of the paper) plus the scenario
/// fills used by the benchmarks: "interface" (solidification front),
/// "liquid", and "solid" blocks.

#include "core/sim_block.h"
#include "thermo/system.h"

namespace tpf::core {

enum class CellRegion {
    BulkSolid,  ///< exactly one solid phase = 1
    BulkLiquid, ///< liquid = 1
    Interface,  ///< diffuse interface without liquid participation
    Front,      ///< diffuse interface with liquid participation (F region)
};

/// Classify the order parameters \p p of one cell.
CellRegion classifyPhi(const double p[N]);

/// Classify a single cell of a phi field.
CellRegion classifyCell(const Field<double>& phi, int x, int y, int z);

/// Counts of the regions over the interior of a block.
struct RegionStats {
    long long bulkSolid = 0;
    long long bulkLiquid = 0;
    long long interface = 0;
    long long front = 0;

    long long total() const {
        return bulkSolid + bulkLiquid + interface + front;
    }
};

RegionStats classifyBlock(const Field<double>& phi);

/// Benchmark scenarios (paper §5.1): composition of a block.
enum class Scenario { Interface, Liquid, Solid };

const char* scenarioName(Scenario s);

/// Fill a block's phi/mu source fields (including ghost layers) with the
/// given scenario:
///  - Liquid: pure liquid everywhere, mu at the eutectic value.
///  - Solid: lamellar solid (stripes of the three solid phases along x with
///    diffuse boundaries), no liquid.
///  - Interface: lamellar solid in the lower third, liquid in the upper
///    third, and a diffuse solidification front in between (tanh profile of
///    width ~eps).
/// Deterministic; \p lamellaWidth in cells.
void fillScenario(SimBlock& b, Scenario s, const thermo::TernarySystem& sys,
                  double eps, int lamellaWidth = 12);

} // namespace tpf::core
