/// Reproduces **Figure 5**: "Comparison of different vectorization strategies
/// on one SuperMUC core, block size chosen as 60^3" — phi-kernel MLUP/s for
///   (a) cellwise vectorization (one SIMD vector = the 4 phases of a cell),
///   (b) cellwise with shortcuts (per-cell bulk branch),
///   (c) multi-cell vectorization (one vector = one phase of the dispatch
///       target's width of consecutive cells, 8 under avx512; bulk cells
///       blended per lane; the production kind),
/// each measured on interface / liquid / solid blocks.
///
/// Expected shape (paper, 4-wide AVX): cellwise-with-shortcuts is fastest in
/// all three scenarios. The multi-cell column runs at the active target's
/// width, so the table shows whether that still holds on the host.

#include <cstdio>

#include "bench_common.h"
#include "core/kernel_dispatch.h"

using namespace tpf;
using namespace tpf::bench;
using core::PhiKernelKind;
using core::Scenario;

int main() {
    std::printf("== Figure 5: phi-kernel vectorization strategies "
                "(60^3 block, one core) ==\n");
    std::printf("kernel target: %s\n\n", core::activeKernelTarget()->name);

    Table t({"scenario", "cellwise [MLUP/s]", "cellwise+shortcuts [MLUP/s]",
             "multi-cell [MLUP/s]"});

    for (Scenario sc :
         {Scenario::Interface, Scenario::Liquid, Scenario::Solid}) {
        KernelBench kb(sc);
        const double cellwise = kb.phiMlups(PhiKernelKind::SimdTzStag);
        const double cellwiseCut = kb.phiMlups(PhiKernelKind::SimdTzStagCut);
        const double fourCell = kb.phiMlups(PhiKernelKind::SimdFourCell);
        t.addRow({scenarioLabel(sc), Table::num(cellwise, 2),
                  Table::num(cellwiseCut, 2), Table::num(fourCell, 2)});
    }
    t.print();

    std::printf("\nPaper's observation to verify: \"In all three parts of the "
                "domain, the single cell kernel with shortcuts performes "
                "best.\"\n");
    return 0;
}
