/// Reproduces **Figure 6**: the single-core optimization progression for the
/// phi-kernel (left) and mu-kernel (right), run in interface/liquid/solid
/// blocks of size 60^3:
///   general purpose C code -> basic waLBerla implementation
///   -> explicit SIMD (cellwise for phi, four-cell for mu)
///   -> T(z) optimization -> staggered buffer -> shortcuts.
///
/// Expected shape (paper): monotone improvement; the staggered buffer nearly
/// doubles the mu-kernel; shortcuts help phi mostly in liquid and mu mostly
/// in solid; total speedup vs the general code is an order of magnitude or
/// more (paper: up to 80x vs original across architectures).

#include <cstdio>

#include "bench_common.h"
#include "core/kernel_dispatch.h"

using namespace tpf;
using namespace tpf::bench;
using core::MuKernelKind;
using core::PhiKernelKind;
using core::Scenario;

int main() {
    std::printf("== Figure 6: kernel optimization progression (60^3 block) ==\n");
    std::printf("kernel target: %s\n\n", core::activeKernelTarget()->name);

    const Scenario scenarios[] = {Scenario::Interface, Scenario::Liquid,
                                  Scenario::Solid};

    {
        std::printf("-- phi-kernel [MLUP/s] --\n");
        const std::pair<const char*, PhiKernelKind> stages[] = {
            {"general purpose C code", PhiKernelKind::General},
            {"basic waLBerla implementation", PhiKernelKind::Basic},
            {"with SIMD intrinsics (single cell)", PhiKernelKind::Simd},
            {"with T(z) optimization", PhiKernelKind::SimdTz},
            {"with staggered buffer", PhiKernelKind::SimdTzStag},
            {"with shortcuts", PhiKernelKind::SimdTzStagCut},
        };
        Table t({"stage", "interface", "liquid", "solid"});
        double base[3] = {0, 0, 0};
        double last[3] = {0, 0, 0};
        for (const auto& [label, kind] : stages) {
            std::vector<std::string> row{label};
            for (int s = 0; s < 3; ++s) {
                KernelBench kb(scenarios[s]);
                const double v = kb.phiMlups(kind);
                if (kind == PhiKernelKind::General) base[s] = v;
                last[s] = v;
                row.push_back(Table::num(v, 2));
            }
            t.addRow(std::move(row));
        }
        t.print();
        std::printf("speedup vs general code: interface %.1fx, liquid %.1fx, "
                    "solid %.1fx\n\n",
                    last[0] / base[0], last[1] / base[1], last[2] / base[2]);
    }

    {
        std::printf("-- mu-kernel [MLUP/s] --\n");
        const std::pair<const char*, MuKernelKind> stages[] = {
            {"general purpose C code", MuKernelKind::General},
            {"basic waLBerla implementation", MuKernelKind::Basic},
            {"with SIMD intrinsics (four cells)", MuKernelKind::Simd},
            {"with T(z) optimization", MuKernelKind::SimdTz},
            {"with staggered buffer", MuKernelKind::SimdTzStag},
            {"with shortcuts", MuKernelKind::SimdTzStagCut},
        };
        Table t({"stage", "interface", "liquid", "solid"});
        double base[3] = {0, 0, 0};
        double last[3] = {0, 0, 0};
        double stagGain[3] = {0, 0, 0};
        double preStag[3] = {0, 0, 0};
        for (const auto& [label, kind] : stages) {
            std::vector<std::string> row{label};
            for (int s = 0; s < 3; ++s) {
                KernelBench kb(scenarios[s]);
                const double v = kb.muMlups(kind);
                if (kind == MuKernelKind::General) base[s] = v;
                if (kind == MuKernelKind::SimdTz) preStag[s] = v;
                if (kind == MuKernelKind::SimdTzStag) stagGain[s] = v / preStag[s];
                last[s] = v;
                row.push_back(Table::num(v, 2));
            }
            t.addRow(std::move(row));
        }
        t.print();
        std::printf("speedup vs general code: interface %.1fx, liquid %.1fx, "
                    "solid %.1fx\n",
                    last[0] / base[0], last[1] / base[1], last[2] / base[2]);
        std::printf("staggered-buffer factor (paper: \"almost a factor of "
                    "two\"): %.2fx / %.2fx / %.2fx\n",
                    stagGain[0], stagGain[1], stagGain[2]);
    }
    return 0;
}
