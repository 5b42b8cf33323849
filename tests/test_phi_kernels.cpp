/// Kernel equivalence + invariant tests for the phi-sweep — the executable
/// version of the paper's "regularly running test suite [that] checks all
/// kernel versions for equivalence".
///
/// Equivalence classes:
///  - General / Basic / ScalarTzStag / ScalarTzStagCut: bitwise identical
///    (same expressions; the Tz cache and the staggered buffers reproduce the
///    per-cell arithmetic exactly, and the bulk shortcut is exact because
///    projection pins bulk cells at simplex vertices).
///  - SIMD variants: equal to the scalar reference within a tight tolerance
///    (different association of the four-phase sums).
///  - SimdFourCell (the production multi-cell body): byte-identical to
///    SimdTzStagCut on every dispatch target, block shape and slab.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>

#include "core/kernel_dispatch.h"
#include "core/kernels.h"
#include "core/regions.h"
#include "thermo/agalcu.h"
#include "util/random.h"

namespace tpf::core {
namespace {

/// gtest parameter names must be alphanumeric: strip the +/- decorations of
/// the kernel display names.
std::string testSafe(std::string s) {
    std::string out;
    for (char c : s)
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
    return out;
}

struct KernelFixture {
    thermo::TernarySystem sys = thermo::makeAgAlCu();
    ModelParams prm = ModelParams::defaults();
    FrozenTemperature temp{prm.temp};
    TzCache tz;

    std::unique_ptr<SimBlock> makeBlock(Scenario sc, Int3 size = {16, 16, 16},
                                        std::uint64_t perturbSeed = 0,
                                        Layout layout = Layout::fzyx) {
        auto b = std::make_unique<SimBlock>(size, layout, layout);
        fillScenario(*b, sc, sys, prm.eps);
        if (perturbSeed != 0) {
            // Perturb mu so the driving force and anti-trapping terms are
            // exercised away from the symmetric equilibrium.
            Random rng(perturbSeed);
            forEachCell(b->muSrc.withGhosts(), [&](int x, int y, int z) {
                b->muSrc(x, y, z, 0) += rng.uniform(-0.02, 0.02);
                b->muSrc(x, y, z, 1) += rng.uniform(-0.02, 0.02);
            });
        }
        return b;
    }

    StepContext ctx(const SimBlock& b) {
        StepContext c;
        c.mc = ModelConsts::build(prm, sys);
        tz.build(c.mc, temp, b.origin.z, b.size.z, /*t=*/0.0, /*woff=*/0.0);
        c.tz = &tz;
        c.temp = &temp;
        return c;
    }
};

double maxDiff(const Field<double>& a, const Field<double>& b) {
    return a.maxAbsDiff(b);
}

class PhiKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<PhiKernelKind, Scenario>> {};

TEST_P(PhiKernelEquivalence, MatchesBasicReference) {
    const auto [kind, scenario] = GetParam();
    KernelFixture fx;

    auto ref = fx.makeBlock(scenario, {16, 16, 16}, 77);
    auto tst = fx.makeBlock(scenario, {16, 16, 16}, 77);
    ASSERT_EQ(maxDiff(ref->phiSrc, tst->phiSrc), 0.0);

    auto ctxRef = fx.ctx(*ref);
    runPhiKernel(PhiKernelKind::Basic, *ref, ctxRef);
    auto ctxTst = fx.ctx(*tst);
    runPhiKernel(kind, *tst, ctxTst);

    const double d = maxDiff(ref->phiDst, tst->phiDst);
    const bool bitwiseClass = kind == PhiKernelKind::General ||
                              kind == PhiKernelKind::Basic ||
                              kind == PhiKernelKind::ScalarTzStag ||
                              kind == PhiKernelKind::ScalarTzStagCut;
    if (bitwiseClass)
        EXPECT_EQ(d, 0.0) << kernelName(kind) << " must be bitwise equal";
    else
        EXPECT_LT(d, 1e-11) << kernelName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllScenarios, PhiKernelEquivalence,
    ::testing::Combine(::testing::ValuesIn(allPhiKernels()),
                       ::testing::Values(Scenario::Interface, Scenario::Liquid,
                                         Scenario::Solid)),
    [](const auto& pinfo) {
        return testSafe(kernelName(std::get<0>(pinfo.param))) + "_" +
               scenarioName(std::get<1>(pinfo.param));
    });

class PhiKernelInvariants : public ::testing::TestWithParam<PhiKernelKind> {};

TEST_P(PhiKernelInvariants, ResultStaysOnSimplex) {
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Interface, {16, 16, 16}, 31);
    auto ctx = fx.ctx(*b);
    runPhiKernel(GetParam(), *b, ctx);
    forEachCell(b->phiDst.interior(), [&](int x, int y, int z) {
        double s = 0.0;
        for (int a = 0; a < N; ++a) {
            const double v = b->phiDst(x, y, z, a);
            ASSERT_GE(v, 0.0);
            ASSERT_LE(v, 1.0);
            s += v;
        }
        ASSERT_NEAR(s, 1.0, 1e-12);
    });
}

TEST_P(PhiKernelInvariants, BulkCellsAreExactNoOps) {
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Interface, {16, 16, 16}, 31);
    auto ctx = fx.ctx(*b);
    runPhiKernel(GetParam(), *b, ctx);
    // Every cell whose whole D3C7 neighborhood is one exact vertex must be
    // unchanged bitwise — regardless of whether the kernel shortcuts.
    long long bulkCells = 0;
    forEachCell(b->phiDst.interior(), [&](int x, int y, int z) {
        int phase = -1;
        for (int a = 0; a < N; ++a)
            if (b->phiSrc(x, y, z, a) == 1.0) phase = a;
        if (phase < 0) return;
        const bool bulk7 = b->phiSrc(x - 1, y, z, phase) == 1.0 &&
                           b->phiSrc(x + 1, y, z, phase) == 1.0 &&
                           b->phiSrc(x, y - 1, z, phase) == 1.0 &&
                           b->phiSrc(x, y + 1, z, phase) == 1.0 &&
                           b->phiSrc(x, y, z - 1, phase) == 1.0 &&
                           b->phiSrc(x, y, z + 1, phase) == 1.0;
        if (!bulk7) return;
        ++bulkCells;
        for (int a = 0; a < N; ++a)
            ASSERT_EQ(b->phiDst(x, y, z, a), b->phiSrc(x, y, z, a))
                << "bulk cell changed at " << x << "," << y << "," << z;
    });
    EXPECT_GT(bulkCells, 100) << "scenario should contain bulk cells";
}

TEST_P(PhiKernelInvariants, PureLiquidBlockIsCompletelyStatic) {
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Liquid);
    auto ctx = fx.ctx(*b);
    runPhiKernel(GetParam(), *b, ctx);
    EXPECT_EQ(maxDiff(b->phiDst, b->phiSrc), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PhiKernelInvariants,
                         ::testing::ValuesIn(allPhiKernels()),
                         [](const auto& pinfo) { return testSafe(kernelName(pinfo.param)); });

TEST(PhiKernel, UndercoolingGrowsSolidAtTheFront) {
    // With the eutectic isotherm far above the front, the front region is
    // strongly undercooled -> liquid fraction must decrease.
    KernelFixture fx;
    fx.prm.temp.gradient = 1.0;
    fx.prm.temp.zEut0 = 40.0; // front at z = 8 is 31.5 K undercooled
    fx.temp = FrozenTemperature(fx.prm.temp);

    auto b = fx.makeBlock(Scenario::Interface);
    double liq0 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq0 += b->phiSrc(x, y, z, LIQ);
    });

    auto ctx = fx.ctx(*b);
    // A few steps: sweep, swap phi (mu held fixed — pure driving-force test).
    for (int step = 0; step < 5; ++step) {
        runPhiKernel(PhiKernelKind::Basic, *b, ctx);
        b->phiSrc.copyFrom(b->phiDst);
    }
    double liq1 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq1 += b->phiSrc(x, y, z, LIQ);
    });
    EXPECT_LT(liq1, liq0) << "undercooled front must solidify";
}

TEST(PhiKernel, SuperheatingMeltsSolidAtTheFront) {
    KernelFixture fx;
    fx.prm.temp.gradient = 1.0;
    fx.prm.temp.zEut0 = -30.0; // whole block above T_E -> melting
    fx.temp = FrozenTemperature(fx.prm.temp);

    auto b = fx.makeBlock(Scenario::Interface);
    double liq0 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq0 += b->phiSrc(x, y, z, LIQ);
    });
    auto ctx = fx.ctx(*b);
    for (int step = 0; step < 5; ++step) {
        runPhiKernel(PhiKernelKind::Basic, *b, ctx);
        b->phiSrc.copyFrom(b->phiDst);
    }
    double liq1 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq1 += b->phiSrc(x, y, z, LIQ);
    });
    EXPECT_GT(liq1, liq0) << "superheated front must melt";
}

TEST(PhiKernel, ZyxfLayoutGivesSameResultAsFzyx) {
    KernelFixture fx;
    auto a = std::make_unique<SimBlock>(Int3{12, 12, 12}, Layout::fzyx,
                                        Layout::fzyx);
    auto b = std::make_unique<SimBlock>(Int3{12, 12, 12}, Layout::zyxf,
                                        Layout::zyxf);
    fillScenario(*a, Scenario::Interface, fx.sys, fx.prm.eps);
    fillScenario(*b, Scenario::Interface, fx.sys, fx.prm.eps);

    auto ca = fx.ctx(*a);
    runPhiKernel(PhiKernelKind::Basic, *a, ca);
    auto cb = fx.ctx(*b);
    runPhiKernel(PhiKernelKind::Basic, *b, cb);

    forEachCell(a->phiDst.interior(), [&](int x, int y, int z) {
        for (int f = 0; f < N; ++f)
            ASSERT_EQ(a->phiDst(x, y, z, f), b->phiDst(x, y, z, f));
    });
}

TEST(PhiKernel, RegionClassificationOfScenarios) {
    KernelFixture fx;
    auto liq = fx.makeBlock(Scenario::Liquid);
    auto sol = fx.makeBlock(Scenario::Solid);
    auto inter = fx.makeBlock(Scenario::Interface);

    const auto sLiq = classifyBlock(liq->phiSrc);
    EXPECT_EQ(sLiq.bulkLiquid, sLiq.total());

    const auto sSol = classifyBlock(sol->phiSrc);
    EXPECT_EQ(sSol.bulkLiquid, 0);
    EXPECT_GT(sSol.bulkSolid, 0);
    EXPECT_GT(sSol.interface, 0); // solid-solid lamella boundaries

    const auto sInt = classifyBlock(inter->phiSrc);
    EXPECT_GT(sInt.bulkLiquid, 0);
    EXPECT_GT(sInt.bulkSolid, 0);
    EXPECT_GT(sInt.front, 0);
}

// --- multi-cell production body: bitwise contract ---------------------------
// SimdFourCell must reproduce SimdTzStagCut byte for byte (docs/KERNELS.md
// "Variant contract"): per-lane cellwise arithmetic, per-lane bulk blend,
// +0.0 carries behind bulk cells, overlapped tail groups, slab re-seeding.

bool sameBytes(const Field<double>& a, const Field<double>& b) {
    return a.allocSize() == b.allocSize() &&
           std::memcmp(a.data(), b.data(), a.allocSize() * sizeof(double)) == 0;
}

/// Restores the dispatch target a test started with (TPF_KERNEL may pin it).
struct TargetGuard {
    const KernelTarget* prev = activeKernelTarget();
    ~TargetGuard() { setKernelTarget(prev->name); }
};

/// Runs SimdTzStagCut and SimdFourCell on identical blocks and reports
/// whether phiDst matches byte for byte.
bool fourCellMatchesCellwise(KernelFixture& fx, Scenario sc, Int3 size,
                             int zBegin = 0, int zEnd = -1,
                             Layout layout = Layout::fzyx) {
    auto ref = fx.makeBlock(sc, size, 77, layout);
    auto tst = fx.makeBlock(sc, size, 77, layout);
    auto c = fx.ctx(*ref);
    c.zBegin = zBegin;
    c.zEnd = zEnd;
    runPhiKernel(PhiKernelKind::SimdTzStagCut, *ref, c);
    runPhiKernel(PhiKernelKind::SimdFourCell, *tst, c);
    return sameBytes(ref->phiDst, tst->phiDst);
}

TEST(PhiMultiCell, SimdFourCellIsBytewiseCellwiseOnEveryTarget) {
    TargetGuard guard;
    KernelFixture fx;
    for (const KernelTarget* t : availableKernelTargets()) {
        ASSERT_TRUE(setKernelTarget(t->name));
        for (Scenario sc :
             {Scenario::Interface, Scenario::Liquid, Scenario::Solid}) {
            // 16: whole groups at every width; 20 and 12: nx % 8 == 4, an
            // overlapped tail group under the 8-wide target.
            for (Int3 size : {Int3{16, 16, 16}, Int3{20, 12, 12},
                              Int3{12, 8, 16}}) {
                SCOPED_TRACE(std::string(t->name) + " " + scenarioName(sc) +
                             " nx=" + std::to_string(size.x));
                EXPECT_TRUE(fourCellMatchesCellwise(fx, sc, size));
                // Slab-restricted sweeps re-seed the z-carry at zBegin.
                EXPECT_TRUE(fourCellMatchesCellwise(fx, sc, size, 5, 11));
                EXPECT_TRUE(fourCellMatchesCellwise(fx, sc, size, 3, -1));
            }
        }
    }
}

TEST(PhiMultiCell, SignedZeroAndJunctionStatesAreBytewiseCellwise) {
    // Half the cells (ghosts included) overwritten with random simplex
    // vertices whose zero phases carry random signs, and some with random
    // three- and four-phase mixtures. Here a flux of -0.0 next to a bulk cell
    // reaches the output, so this pins the +0.0 carry rule and the cyclic
    // pair order, which the smooth scenarios above cannot tell apart.
    TargetGuard guard;
    KernelFixture fx;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto make = [&] {
            auto b = fx.makeBlock(Scenario::Interface, {20, 12, 12}, 77);
            Random rng(seed);
            forEachCell(b->phiSrc.withGhosts(), [&](int x, int y, int z) {
                const double r = rng.uniform(0.0, 1.0);
                if (r < 0.5) return;
                const int k = static_cast<int>(rng.uniform(0.0, 4.0)) % N;
                for (int a = 0; a < N; ++a) {
                    double v = rng.uniform(0.0, 1.0) < 0.5 ? -0.0 : 0.0;
                    if (a == k) v = 1.0;
                    else if (r > 0.9) v = rng.uniform(0.0, 0.3);
                    b->phiSrc(x, y, z, a) = v;
                }
            });
            return b;
        };
        for (const KernelTarget* t : availableKernelTargets()) {
            ASSERT_TRUE(setKernelTarget(t->name));
            SCOPED_TRACE(std::string(t->name) + " seed " + std::to_string(seed));
            auto ref = make();
            auto tst = make();
            auto c = fx.ctx(*ref);
            runPhiKernel(PhiKernelKind::SimdTzStagCut, *ref, c);
            runPhiKernel(PhiKernelKind::SimdFourCell, *tst, c);
            EXPECT_TRUE(sameBytes(ref->phiDst, tst->phiDst));
        }
    }
}

TEST(PhiMultiCell, BodyMatchesCellwiseForEveryFlagCombination) {
    // The body takes the cellwise ladder's Tz/Stag/Cut flags; each
    // combination must match the cellwise body with the same flags.
    KernelFixture fx;
    for (const KernelTarget* t : availableKernelTargets()) {
        for (int flags = 0; flags < 8; ++flags) {
            const bool tz = flags & 1, stag = flags & 2, cut = flags & 4;
            SCOPED_TRACE(std::string(t->name) + " Tz=" + std::to_string(tz) +
                         " Stag=" + std::to_string(stag) +
                         " Cut=" + std::to_string(cut));
            auto ref = fx.makeBlock(Scenario::Interface, {20, 12, 12}, 77);
            auto tst = fx.makeBlock(Scenario::Interface, {20, 12, 12}, 77);
            auto c = fx.ctx(*ref);
            c.zBegin = 2;
            t->phiCellwise(*ref, c, tz, stag, cut);
            t->phiMultiCell(*tst, c, tz, stag, cut);
            EXPECT_TRUE(sameBytes(ref->phiDst, tst->phiDst));
        }
    }
}

TEST(PhiMultiCell, BlocksTheBodyCannotTakeRunTheCellwiseBody) {
    // nx below the target width (4 and 6 under avx512) and the zyxf layout
    // fall back to the cellwise Tz+Stag+Cut body; the old fallback asserted
    // on nx % 4 != 0 and on zyxf.
    TargetGuard guard;
    KernelFixture fx;
    for (const KernelTarget* t : availableKernelTargets()) {
        ASSERT_TRUE(setKernelTarget(t->name));
        for (Int3 size : {Int3{4, 8, 8}, Int3{6, 8, 8}}) {
            SCOPED_TRACE(std::string(t->name) + " nx=" + std::to_string(size.x));
            EXPECT_TRUE(
                fourCellMatchesCellwise(fx, Scenario::Interface, size));
        }
        SCOPED_TRACE(std::string(t->name) + " zyxf");
        EXPECT_TRUE(fourCellMatchesCellwise(fx, Scenario::Interface,
                                            {12, 12, 12}, 0, -1, Layout::zyxf));
    }
}

TEST(PhiKernelSimdGuards, MinimalVectorWidthBlockMatchesBasic) {
    // nx = 4 is the narrowest block the four-cell kernel accepts.
    KernelFixture fx;
    auto ref = fx.makeBlock(Scenario::Interface, {4, 8, 8}, 77);
    auto tst = fx.makeBlock(Scenario::Interface, {4, 8, 8}, 77);

    auto ctxRef = fx.ctx(*ref);
    runPhiKernel(PhiKernelKind::Basic, *ref, ctxRef);
    auto ctxTst = fx.ctx(*tst);
    runPhiKernel(PhiKernelKind::SimdFourCell, *tst, ctxTst);

    EXPECT_LT(maxDiff(ref->phiDst, tst->phiDst), 1e-11);
}

} // namespace
} // namespace tpf::core
