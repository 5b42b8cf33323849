#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "core/kernels.h"
#include "core/slab_sweep.h"
#include "io/checkpoint.h"
#include "perf/roofline.h"
#include "perf/streambench.h"
#include "stats.h"

namespace tpfbench {

namespace {

using namespace tpf;

// Repetitions per probe: enough for a stable median, few enough that the
// probes of the largest workload stay within a few seconds.
constexpr int kKernelReps = 3;
constexpr int kSweepReps = 3;
constexpr int kExchangeReps = 20;
constexpr int kAnalysisReps = 3;
constexpr int kMeshReps = 2;
constexpr int kCheckpointReps = 3;
constexpr int kVmpiCalls = 1000;
constexpr int kPingTag = 7;

/// Median seconds of \p fn over \p reps calls, each started together on all
/// ranks.
template <typename Fn>
double collectiveMedian(vmpi::Comm& comm, int reps, Fn&& fn) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        comm.barrier();
        const double t0 = now();
        fn();
        t.push_back(now() - t0);
    }
    return median(t);
}

/// Kernel contexts of the solver's current state, one per local block —
/// what the solver builds internally for a step, from public parts.
class Sweeper {
public:
    explicit Sweeper(core::Solver& solver) : solver_(solver) {
        const core::ModelConsts mc = core::ModelConsts::build(
            solver.config().model, solver.system());
        const auto& blocks = solver.localBlocks();
        tz_.resize(blocks.size());
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            tz_[i].build(mc, solver.temperature(), blocks[i]->origin.z,
                         blocks[i]->size.z, solver.time(),
                         solver.windowOffsetCells());
            core::StepContext ctx;
            ctx.mc = mc;
            ctx.tz = &tz_[i];
            ctx.temp = &solver.temperature();
            ctx.time = solver.time();
            ctx.windowOffset = solver.windowOffsetCells();
            ctx_.push_back(ctx);
        }
    }

    /// One phi and/or mu sweep of every local block over \p pool (nullptr:
    /// one thread), with the solver's kernel kinds and slab partition.
    void run(util::ThreadPool* pool, bool phi, bool mu) {
        const core::SolverConfig& cfg = solver_.config();
        auto& blocks = solver_.localBlocks();
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            core::SimBlock& b = *blocks[i];
            const core::StepContext& ctx = ctx_[i];
            const CellInterval whole{0, 0, 0, b.size.x - 1, b.size.y - 1,
                                     b.size.z - 1};
            if (phi)
                core::parallelForSlabs(pool, whole, [&](const CellInterval& s) {
                    core::runPhiKernel(cfg.phiKernel, b, ctx.forSlab(s));
                });
            if (mu)
                core::parallelForSlabs(pool, whole, [&](const CellInterval& s) {
                    core::runMuKernel(cfg.muKernel, b, ctx.forSlab(s));
                });
        }
    }

    long long localCells() const {
        long long n = 0;
        for (const auto& b : solver_.localBlocks()) n += b->numCells();
        return n;
    }

private:
    core::Solver& solver_;
    std::vector<core::TzCache> tz_;
    std::vector<core::StepContext> ctx_;
};

} // namespace

void runRankProbes(vmpi::Comm& comm, core::Solver& solver,
                   const std::string& dir, SpanLog* log, RankProbes& out) {
    const bool root = comm.isRoot();
    const double ranks = comm.size();
    Sweeper sweeper(solver);

    {
        // Single-core kernel rate: rank 0 alone, the other ranks idle.
        SpanScope span(log, "probe.kernel");
        comm.barrier();
        if (root) {
            std::vector<double> phi, mu;
            for (int r = 0; r < kKernelReps; ++r) {
                double t0 = now();
                sweeper.run(nullptr, true, false);
                phi.push_back(now() - t0);
                t0 = now();
                sweeper.run(nullptr, false, true);
                mu.push_back(now() - t0);
            }
            const double cells = static_cast<double>(sweeper.localCells());
            out.phiMlups = cells / median(phi) / 1e6;
            out.muMlups = cells / median(mu) / 1e6;
        }
        comm.barrier();
    }
    {
        // Fan-out: the same phi+mu sweep on 1 and on T threads, all ranks
        // concurrently as in a step.
        SpanScope span(log, "probe.sweep");
        const double t1 = collectiveMedian(comm, kSweepReps, [&] {
            sweeper.run(nullptr, true, true);
        });
        const double tT = collectiveMedian(comm, kSweepReps, [&] {
            sweeper.run(solver.pool(), true, true);
        });
        const double threads = solver.config().threads;
        const double eff = comm.allreduceSum(t1 / (threads * tT)) / ranks;
        const double slowest = comm.allreduceMax(tT);
        const double mean = comm.allreduceSum(tT) / ranks;
        out.fanoutEff = eff;
        out.rankImbalance = slowest / mean;
        out.slowestSweepMs = slowest * 1e3;
    }
    {
        SpanScope span(log, "probe.exchange");
        const double t = collectiveMedian(comm, kExchangeReps, [&] {
            solver.phiExchange().communicate();
            solver.muExchange().communicate();
        });
        out.exchangeMs = comm.allreduceMax(t) * 1e3;
    }
    {
        SpanScope span(log, "probe.analysis");
        analysis::Pipeline pipeline = analysis::Pipeline::makeDefault();
        out.analysisMs = collectiveMedian(comm, kAnalysisReps, [&] {
                             pipeline.sample(solver, solver.stepsDone());
                         }) *
                         1e3;
    }
    {
        SpanScope span(log, "probe.mesh");
        analysis::MeshObserver::Options mo;
        mo.dir = dir + "/probe-mesh";
        if (root) std::filesystem::create_directories(mo.dir);
        analysis::MeshObserver mesh(mo);
        out.meshFrameMs = collectiveMedian(comm, kMeshReps, [&] {
                              mesh.sample(solver, solver.stepsDone());
                          }) *
                          1e3;
        const io::MeshPipelineTimings& mt = mesh.timings();
        out.meshExtractMs = mt.extractSec / kMeshReps * 1e3;
        out.meshSimplifyMs = mt.simplifySec / kMeshReps * 1e3;
        out.meshGatherMs = mt.gatherSec / kMeshReps * 1e3;
    }
    {
        SpanScope span(log, "probe.checkpoint");
        const std::string path = dir + "/probe-checkpoint";
        out.checkpointWriteMs = collectiveMedian(comm, kCheckpointReps, [&] {
                                    io::saveCheckpoint(path, solver);
                                }) *
                                1e3;
        out.checkpointReadMs = collectiveMedian(comm, kCheckpointReps, [&] {
                                   io::loadCheckpoint(path, solver);
                               }) *
                               1e3;
        const double bytes =
            static_cast<double>(io::checkpointBytes(solver));
        out.checkpointMiB = comm.allreduceSum(bytes) / (1024.0 * 1024.0);
    }
}

VmpiProbes runVmpiProbes(vmpi::TransportKind transport, int ranks,
                         std::size_t messageBytes) {
    VmpiProbes out;
    vmpi::runParallel(transport, std::max(2, ranks), [&](vmpi::Comm& c) {
        const std::vector<std::byte> msg(messageBytes);
        std::vector<std::byte> buf;
        std::vector<double> roundTrip, reduce;
        c.barrier();
        for (int i = 0; i < kVmpiCalls; ++i) {
            if (c.rank() == 0) {
                const double t0 = now();
                c.send(1, kPingTag, msg.data(), msg.size());
                c.recv(1, kPingTag, buf);
                roundTrip.push_back(now() - t0);
            } else if (c.rank() == 1) {
                c.recv(0, kPingTag, buf);
                c.send(0, kPingTag, buf.data(), buf.size());
            }
        }
        c.barrier();
        for (int i = 0; i < kVmpiCalls; ++i) {
            const double t0 = now();
            c.allreduceMax(static_cast<double>(i));
            reduce.push_back(now() - t0);
        }
        if (c.isRoot()) {
            out.pingpongUs = median(roundTrip) * 1e6;
            out.allreduceUs = median(reduce) * 1e6;
        }
    });
    return out;
}

HostProbes runHostProbes(int cores, int arrayMiB) {
    HostProbes h;
    h.triad1GiBs = perf::runStream(arrayMiB, 1).triadGiBs;
    h.triadCoresGiBs = perf::runStream(arrayMiB, cores).triadGiBs;
    h.peakGflops = perf::measurePeakGflopsPerCore();
    return h;
}

} // namespace tpfbench
