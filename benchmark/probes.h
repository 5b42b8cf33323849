#pragma once
/// \file probes.h
/// Standalone per-layer probes. After the last traced rep's digest, each
/// layer is timed on its own through the public API, on the rep's final state:
/// the kernels, the slab fan-out, the ghost exchange, the analysis and mesh
/// observers and the checkpoint writer and reader. The transport and the
/// host (memory bandwidth, FMA peak) are probed outside the solver.

#include <cstddef>
#include <string>

#include "core/solver.h"
#include "span_trace.h"
#include "vmpi/comm.h"

namespace tpfbench {

/// Results of runRankProbes, valid on rank 0.
struct RankProbes {
    double phiMlups = 0.0;      ///< rank 0's blocks, 1 thread, serial slabs
    double muMlups = 0.0;
    double fanoutEff = 0.0;     ///< t(1 thread) / (T * t(T threads)), rank mean
    double rankImbalance = 0.0; ///< max / mean of the T-thread sweep time
    double slowestSweepMs = 0.0;
    double exchangeMs = 0.0;    ///< phi + mu communicate(), slowest rank
    double analysisMs = 0.0;    ///< Pipeline::makeDefault().sample()
    double meshFrameMs = 0.0;   ///< MeshObserver::sample(), phases 0,1,2
    double meshExtractMs = 0.0; ///< per frame, from MeshObserver::timings()
    double meshSimplifyMs = 0.0;
    double meshGatherMs = 0.0;
    double checkpointWriteMs = 0.0;
    double checkpointReadMs = 0.0;
    double checkpointMiB = 0.0; ///< all ranks
};

/// Collective: every rank of \p comm calls it after the last traced rep. Writes
/// probe output under \p dir; spans go to \p log.
void runRankProbes(tpf::vmpi::Comm& comm, tpf::core::Solver& solver,
                   const std::string& dir, SpanLog* log, RankProbes& out);

struct VmpiProbes {
    double pingpongUs = 0.0;  ///< rank 0 <-> 1 round trip, median
    double allreduceUs = 0.0; ///< allreduceMax of one double, median
};

/// Spawns \p ranks (at least 2) ranks over \p transport and times
/// point-to-point round trips of \p messageBytes and one-double reductions.
VmpiProbes runVmpiProbes(tpf::vmpi::TransportKind transport, int ranks,
                         std::size_t messageBytes);

struct HostProbes {
    double triad1GiBs = 0.0;     ///< STREAM triad, 1 thread
    double triadCoresGiBs = 0.0; ///< STREAM triad on the workload's cores
    double peakGflops = 0.0;     ///< FMA peak of one core
};

HostProbes runHostProbes(int cores, int arrayMiB);

} // namespace tpfbench
