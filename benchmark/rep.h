#pragma once
/// \file rep.h
/// One rep of a workload: spawn the ranks, build a fresh solver, warm up,
/// step through the timed region with the workload's hooks and checkpoint
/// cadence, then take the output digest outside the timed region. A traced
/// rep additionally steps one Solver::run(1) at a time inside spans, hands
/// every rank's spans to rank 0 and, if asked, runs the per-layer probes.

#include <cstdint>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace tpfbench {

struct RepSpec {
    const Workload* workload = nullptr;
    std::uint64_t seed = 42;
    std::string dir;         ///< scratch directory of this rep (recreated)
    std::string restartBase; ///< checkpoint a Restart workload loads
    bool traced = false;
    bool probes = false;     ///< traced: probe the layers on the final state
};

struct RepResult {
    bool ok = false;
    std::string error;

    double setupS = 0.0; ///< spawn + Solver ctor + init/load, all ranks done
    double wallS = 0.0;  ///< timed region: steps, hooks and checkpoints
    double mlups = 0.0;
    /// Final analysis CSV row (outside the timed region) and its CRC-32.
    std::string digestRow;
    std::uint32_t digest = 0;
    double outputBytes = 0.0;    ///< written to disk in the timed region
    double exchangeBytes = 0.0;  ///< ghost payload sent, all ranks
    /// Largest ru_maxrss, in MiB, of the process the rep ran in and of its
    /// forked ranks; set only for a rep run in a process of its own.
    double peakRssMiB = 0.0;

    // Traced reps only.
    std::vector<std::vector<SpanLog::Span>> rankSpans; ///< index = rank
    RankProbes probes;                                 ///< RepSpec::probes
};

/// Run one rep. Never throws: a failure is reported in RepResult::error.
RepResult runRep(const RepSpec& spec);

/// Write the checkpoint a Restart workload resumes from (untimed): a fresh
/// Voronoi run of kRestartStep steps, saved to \p path.
void writeRestartBase(const Workload& w, std::uint64_t seed,
                      const std::string& path);

} // namespace tpfbench
