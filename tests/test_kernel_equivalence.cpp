/// The kernel-equivalence lockdown of the runtime SIMD dispatch
/// (docs/KERNELS.md): every dispatch target (scalar / sse2 / avx2 / avx512)
/// must produce bitwise the same fields as the scalar target — serial and
/// on threaded ranks, with the moving window on and off, with the production
/// mu-overlap communication hiding on.
///
/// The contract is exact (memcmp over the interiors), so any reassociation
/// slipped into a width-8 body or a misordered ghost exchange fails loudly
/// rather than drifting. The dispatch plumbing (resolveKernelTarget,
/// setKernelTarget) is checked here too.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/solver.h"
#include "vmpi/comm.h"

namespace tpf {
namespace {

/// Restores the dispatch target a test started with (TPF_KERNEL may pin it).
struct TargetGuard {
    const core::KernelTarget* prev = core::activeKernelTarget();
    ~TargetGuard() { core::setKernelTarget(prev->name); }
};

core::SolverConfig makeConfig(int ranks, int threads, bool window) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 32};
    if (ranks > 1) cfg.blockSize = {16, 16, 32 / ranks};
    cfg.threads = threads;
    cfg.overlapMu = true; // the paper's production communication hiding
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.zEut0 = 12.0;
    if (window) {
        // Window-heavy scenario borrowed from the restart tests: the solid
        // fill starts far above the trigger, so shifts happen mid-run and
        // every target has to get the shifted ghosts right too.
        cfg.model.temp.velocity = 0.02;
        cfg.init.fillHeight = 26;
        cfg.window.enabled = true;
        cfg.window.triggerFraction = 0.2;
        cfg.window.checkEvery = 8;
    } else {
        cfg.init.fillHeight = 10;
    }
    return cfg;
}

/// Interior phi + mu of all local blocks, flattened in a fixed order.
std::vector<double> snapshot(core::Solver& s) {
    std::vector<double> out;
    for (auto& bp : s.localBlocks()) {
        for (const Field<double>* f : {&bp->phiSrc, &bp->muSrc}) {
            const CellInterval in = f->interior();
            for (int c = 0; c < f->nf(); ++c)
                for (int z = in.zMin; z <= in.zMax; ++z)
                    for (int y = in.yMin; y <= in.yMax; ++y)
                        for (int x = in.xMin; x <= in.xMax; ++x)
                            out.push_back((*f)(x, y, z, c));
        }
    }
    return out;
}

/// Empty string when bitwise equal, else a pointed first-difference message.
std::string diffSnapshots(const std::vector<double>& a,
                          const std::vector<double>& b) {
    if (a.empty() || b.empty())
        return "empty snapshot — the per-rank gather produced nothing, the "
               "comparison would be vacuous";
    if (a.size() != b.size())
        return "snapshot sizes differ: " + std::to_string(a.size()) + " vs " +
               std::to_string(b.size());
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0)
        return {};
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "first difference at flat index %zu: %.17g vs %.17g",
                          i, a[i], b[i]);
            return buf;
        }
    }
    return "memcmp differs but no differing element found (padding?)";
}

/// Runs \p steps of \p cfg on \p ranks virtual ranks and
/// returns one interior snapshot per rank (plus the final window offset).
struct RunResult {
    std::vector<std::vector<double>> perRank;
    double windowOffset = 0.0;
};

RunResult runSolver(const core::SolverConfig& cfg, int ranks, int steps) {
    RunResult r;
    r.perRank.resize(static_cast<std::size_t>(ranks));
    auto body = [&](vmpi::Comm* comm) {
        core::Solver s(cfg, comm);
        s.initialize();
        s.run(steps);
        const std::vector<double> mine = snapshot(s);
        if (!comm) {
            r.perRank[0] = mine;
            r.windowOffset = s.windowOffsetCells();
            return;
        }
        // Gather the snapshots through the communicator: process-backed
        // transports (shm, mpi) run non-root ranks in separate address
        // spaces, so writing into r.perRank from those ranks would be lost
        // and the comparison would pass vacuously on empty vectors.
        std::vector<std::byte> bytes(mine.size() * sizeof(double));
        std::memcpy(bytes.data(), mine.data(), bytes.size());
        const auto all = comm->gatherAllBytes(bytes);
        if (comm->isRoot()) {
            for (int rk = 0; rk < ranks; ++rk) {
                const auto& b = all[static_cast<std::size_t>(rk)];
                auto& dst = r.perRank[static_cast<std::size_t>(rk)];
                dst.resize(b.size() / sizeof(double));
                std::memcpy(dst.data(), b.data(), b.size());
            }
            r.windowOffset = s.windowOffsetCells();
        }
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
    return r;
}

constexpr int kSteps = 12;

/// Every available dispatch target reproduces the narrowest (scalar) target
/// bitwise, serial and threaded+ranked.
TEST(KernelEquivalence, DispatchTargetsMatchBitwise) {
    TargetGuard guard;
    const auto targets = core::availableKernelTargets();
    ASSERT_FALSE(targets.empty());
    ASSERT_STREQ(targets.front()->name, "scalar")
        << "scalar fallback target must always be available";

    // (ranks, threads) legs: serial, and the threaded multi-rank worst case.
    const struct {
        int ranks, threads;
    } legs[] = {{1, 1}, {2, 4}, {4, 4}};

    for (const auto& leg : legs) {
        for (const bool window : {false, true}) {
            SCOPED_TRACE("ranks=" + std::to_string(leg.ranks) +
                         " threads=" + std::to_string(leg.threads) +
                         " window=" + std::to_string(window));
            const core::SolverConfig cfg =
                makeConfig(leg.ranks, leg.threads, window);

            RunResult ref;
            for (const core::KernelTarget* t : targets) {
                SCOPED_TRACE(std::string("target=") + t->name);
                ASSERT_TRUE(core::setKernelTarget(t->name));
                RunResult got = runSolver(cfg, leg.ranks, kSteps);
                if (window) {
                    // The scenario must actually shift mid-run, otherwise
                    // the window legs prove nothing.
                    EXPECT_GT(got.windowOffset, 0.0)
                        << "no window shift in the window-on scenario";
                }
                if (t == targets.front()) {
                    ref = std::move(got);
                    continue;
                }
                for (int rk = 0; rk < leg.ranks; ++rk) {
                    const std::string d = diffSnapshots(
                        ref.perRank[static_cast<std::size_t>(rk)],
                        got.perRank[static_cast<std::size_t>(rk)]);
                    EXPECT_TRUE(d.empty()) << "rank " << rk << ": " << d;
                }
            }
        }
    }
}

/// Sets an environment variable (unsets it for nullptr) for one scope.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) old_ = old;
        set(value);
    }
    ~EnvGuard() { set(old_ ? old_->c_str() : nullptr); }

private:
    void set(const char* value) {
        if (value != nullptr)
            setenv(name_, value, 1);
        else
            unsetenv(name_);
    }
    const char* name_;
    std::optional<std::string> old_;
};

/// The dispatch plumbing itself: resolveKernelTarget takes the flag, then
/// $TPF_KERNEL, then the widest target, and names an unknown name;
/// setKernelTarget rejects unknown names without changing the selection.
TEST(KernelEquivalence, DispatchSelection) {
    TargetGuard guard;
    const auto targets = core::availableKernelTargets();
    const core::KernelTarget* widest = targets.back();
    auto available = [&](const std::string& name) {
        for (const core::KernelTarget* t : targets)
            if (name == t->name) return t;
        return static_cast<const core::KernelTarget*>(nullptr);
    };

    {
        EnvGuard env("TPF_KERNEL", nullptr);
        // Schedule prefixes and other names are unknown, from the flag ...
        for (const char* name : {"fused:avx2", "split", "bogus", "avx9000"}) {
            const core::KernelChoice c = core::resolveKernelTarget(name);
            EXPECT_EQ(c.target, nullptr) << name;
            EXPECT_EQ(c.error, std::string("unknown --kernel '") + name +
                                   "' (auto, scalar, sse2, avx2, avx512)");
        }
        // ... and no flag and no environment mean the widest target.
        const core::KernelChoice none = core::resolveKernelTarget("");
        EXPECT_TRUE(none.error.empty()) << none.error;
        EXPECT_EQ(none.target, widest);
        EXPECT_EQ(core::resolveKernelTarget("auto").target, widest);

        // A known target: itself where the CPU runs it, else an error.
        for (const char* name : {"scalar", "sse2", "avx2", "avx512"}) {
            const core::KernelChoice c = core::resolveKernelTarget(name);
            if (const core::KernelTarget* t = available(name)) {
                EXPECT_TRUE(c.error.empty()) << c.error;
                EXPECT_EQ(c.target, t);
            } else {
                EXPECT_EQ(c.target, nullptr) << name;
                EXPECT_NE(c.error.find("not available on this CPU"),
                          std::string::npos)
                    << c.error;
            }
        }
    }
    {
        EnvGuard env("TPF_KERNEL", "");
        EXPECT_EQ(core::resolveKernelTarget("").target, widest)
            << "an empty TPF_KERNEL counts as unset";
    }
    {
        EnvGuard env("TPF_KERNEL", "fused");
        const core::KernelChoice c = core::resolveKernelTarget("");
        EXPECT_EQ(c.target, nullptr);
        EXPECT_EQ(c.error, "unknown TPF_KERNEL 'fused' "
                           "(auto, scalar, sse2, avx2, avx512)");
        // The flag wins over a stale environment.
        const core::KernelChoice flag = core::resolveKernelTarget("scalar");
        ASSERT_NE(flag.target, nullptr) << flag.error;
        EXPECT_STREQ(flag.target->name, "scalar");
    }
    for (const char* name : {"scalar", "sse2", "avx2", "avx512"}) {
        // A known target the CPU lacks falls back when $TPF_KERNEL names it.
        EnvGuard env("TPF_KERNEL", name);
        const core::KernelChoice c = core::resolveKernelTarget("");
        EXPECT_TRUE(c.error.empty()) << c.error;
        const core::KernelTarget* t = available(name);
        EXPECT_EQ(c.target, t != nullptr ? t : widest) << name;
    }

    EXPECT_TRUE(core::setKernelTarget("auto"));
    EXPECT_EQ(core::activeKernelTarget(), widest);

    EXPECT_FALSE(core::setKernelTarget("avx9000"));
    EXPECT_EQ(core::activeKernelTarget(), widest) << "failed set must not "
                                                     "change the selection";

    EXPECT_TRUE(core::setKernelTarget("scalar"));
    EXPECT_STREQ(core::activeKernelTarget()->name, "scalar");
    EXPECT_EQ(core::activeKernelTarget()->width, 4);
}

} // namespace
} // namespace tpf
