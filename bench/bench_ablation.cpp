/// Ablation benches for the design choices called out in paper §3.3 and
/// §5.1.1 (docs/KERNELS.md):
///  - staggered-value buffering (paper: "increases the mu-kernel performance
///    by almost a factor of two", smaller effect for phi),
///  - T(z) slice precomputation (paper: +20% mu, +80% phi),
///  - shortcuts per region (paper: phi gains mostly in liquid, mu in solid),
///  - AoS vs SoA layout for the cellwise phi-kernel (paper: "no notable
///    differences ... after a data layout change of the phi-field").

#include <cstdio>

#include "bench_common.h"

using namespace tpf;
using namespace tpf::bench;
using core::MuKernelKind;
using core::PhiKernelKind;
using core::Scenario;

int main() {
    std::printf("== Ablation benches (60^3 interface block unless noted) ==\n\n");

    {
        std::printf("-- staggered-value buffering --\n");
        Table t({"kernel", "without [MLUP/s]", "with [MLUP/s]", "factor"});
        KernelBench kb(Scenario::Interface);
        const double muOff = kb.muMlups(MuKernelKind::SimdTz);
        const double muOn = kb.muMlups(MuKernelKind::SimdTzStag);
        t.addRow({"mu", Table::num(muOff, 2), Table::num(muOn, 2),
                  Table::num(muOn / muOff, 2) + "x"});
        const double phiOff = kb.phiMlups(PhiKernelKind::SimdTz);
        const double phiOn = kb.phiMlups(PhiKernelKind::SimdTzStag);
        t.addRow({"phi", Table::num(phiOff, 2), Table::num(phiOn, 2),
                  Table::num(phiOn / phiOff, 2) + "x"});
        t.print();
        std::printf("(paper: ~2x for mu, small gain for phi)\n\n");
    }

    {
        std::printf("-- T(z) slice precomputation --\n");
        Table t({"kernel", "per-cell recompute [MLUP/s]", "cached [MLUP/s]",
                 "factor"});
        KernelBench kb(Scenario::Interface);
        const double phiOff = kb.phiMlups(PhiKernelKind::Simd);
        const double phiOn = kb.phiMlups(PhiKernelKind::SimdTz);
        t.addRow({"phi", Table::num(phiOff, 2), Table::num(phiOn, 2),
                  Table::num(phiOn / phiOff, 2) + "x"});
        const double muOff = kb.muMlups(MuKernelKind::Simd);
        const double muOn = kb.muMlups(MuKernelKind::SimdTz);
        t.addRow({"mu", Table::num(muOff, 2), Table::num(muOn, 2),
                  Table::num(muOn / muOff, 2) + "x"});
        t.print();
        std::printf("(paper: +80%% phi, +20%% mu)\n\n");
    }

    {
        std::printf("-- shortcuts per region --\n");
        Table t({"scenario", "phi off", "phi on", "factor", "phi production",
                 "mu off", "mu on", "factor"});
        const core::SolverConfig production;
        for (Scenario sc :
             {Scenario::Interface, Scenario::Liquid, Scenario::Solid}) {
            KernelBench kb(sc);
            const double phiOff = kb.phiMlups(PhiKernelKind::SimdTzStag);
            const double phiOn = kb.phiMlups(PhiKernelKind::SimdTzStagCut);
            const double phiProd = kb.phiMlups(production.phiKernel);
            const double muOff = kb.muMlups(MuKernelKind::SimdTzStag);
            const double muOn = kb.muMlups(production.muKernel);
            t.addRow({scenarioLabel(sc), Table::num(phiOff, 2),
                      Table::num(phiOn, 2), Table::num(phiOn / phiOff, 2) + "x",
                      Table::num(phiProd, 2), Table::num(muOff, 2),
                      Table::num(muOn, 2), Table::num(muOn / muOff, 2) + "x"});
        }
        t.print();
        std::printf("(paper: phi gains predominantly in liquid, mu especially "
                    "in solid; phi off/on is the cellwise ladder, phi "
                    "production the solver's default kind)\n\n");
    }

    {
        std::printf("-- phi-field layout for the cellwise kernel --\n");
        Table t({"layout", "phi cellwise+cut [MLUP/s]"});
        {
            KernelBench soa(Scenario::Interface, {60, 60, 60}, Layout::fzyx);
            t.addRow({"fzyx (SoA)",
                      Table::num(soa.phiMlups(PhiKernelKind::SimdTzStagCut), 2)});
        }
        {
            KernelBench aos(Scenario::Interface, {60, 60, 60}, Layout::zyxf);
            t.addRow({"zyxf (AoS)",
                      Table::num(aos.phiMlups(PhiKernelKind::SimdTzStagCut), 2)});
        }
        t.print();
        std::printf("(paper: chose SoA for the mu-kernel's sake; \"no notable "
                    "differences ... in the phi-kernel performance\")\n");
    }
    return 0;
}
