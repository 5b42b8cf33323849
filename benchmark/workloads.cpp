#include "workloads.h"

#include <algorithm>

namespace tpfbench {

using tpf::vmpi::TransportKind;

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> list = [] {
        std::vector<Workload> l;
        // A rep spans one hook cycle where there are hooks, so every rep does
        // the same work; reps without hooks are a few seconds long, so that
        // a run holds several and its median is not moved by a stall of the
        // host during one of them.

        // Every layer active, fields (~163 MiB) larger than the host's L3.
        Workload production;
        production.name = "production";
        production.cells = {96, 96, 192};
        production.ranks = 2;
        production.threads = 2;
        production.window = true;
        production.analyzeEvery = 100;
        production.meshEvery = 200;
        production.checkpointEvery = 200;
        production.timedSteps = 200;
        l.push_back(production);

        // Kernel- and fan-out-bound: one rank, three quarters of the domain
        // solid with Voronoi grain boundaries, cache-resident, no I/O. The
        // 8-cell grains (64 instead of 25 on the cross-section) make the
        // share of expensive boundary cells depend less on the seed.
        Workload interface;
        interface.name = "interface";
        interface.cells = {64, 64, 128};
        interface.grainCells = 8;
        interface.ranks = 1;
        interface.threads = 4;
        interface.fillHeight = 96;
        interface.zEut0 = 96.0;
        interface.timedSteps = 200;
        l.push_back(interface);

        // Exchange-bound: cheap liquid cells on thin 16-plane slabs of four
        // forked ranks. A 192x192 cross-section keeps the exchange-to-compute
        // ratio of 128x128 at half the rank wake-ups per second; at 128x128
        // the host's wake-up latency noise made the run-to-run spread 2.5x
        // wider.
        Workload comm;
        comm.name = "comm";
        comm.cells = {192, 192, 64};
        comm.ranks = 4;
        comm.threads = 1;
        comm.transport = TransportKind::Shm;
        comm.init = InitKind::Liquid;
        comm.timedSteps = 100;
        l.push_back(comm);

        // Hook- and I/O-bound, set up through the checkpoint read path.
        // 8-cell grains put 64 grains on the 64x64 cross-section instead of
        // the default 25, so the mesh, and with it the peak memory, depends
        // less on the seed's grain layout (peak RSS over ten seeds: 62-71
        // MiB with 25 grains, 71-73 MiB with 64).
        Workload restartIo;
        restartIo.name = "restart-io";
        restartIo.cells = {64, 64, 128};
        restartIo.grainCells = 8;
        restartIo.ranks = 2;
        restartIo.threads = 2;
        restartIo.transport = TransportKind::Shm;
        restartIo.init = InitKind::Restart;
        restartIo.window = true;
        restartIo.analyzeEvery = 10;
        restartIo.meshEvery = 20;
        restartIo.checkpointEvery = 50;
        restartIo.timedSteps = 100;
        l.push_back(restartIo);
        return l;
    }();
    return list;
}

const Workload* findWorkload(const std::string& name) {
    for (const auto& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

Workload tinyVariant(const Workload& w) {
    Workload t = w;
    t.cells = {16, 16, 32};
    auto scaleZ = [&](auto z) {
        return z < 0 ? z : z * t.cells.z / w.cells.z;
    };
    t.fillHeight = scaleZ(w.fillHeight);
    t.zEut0 = scaleZ(w.zEut0);
    if (t.analyzeEvery > 0) t.analyzeEvery = std::min(t.analyzeEvery, 10);
    if (t.meshEvery > 0) t.meshEvery = std::min(t.meshEvery, 20);
    if (t.checkpointEvery > 0)
        t.checkpointEvery = std::min(t.checkpointEvery, 20);
    t.timedSteps = 60;
    return t;
}

tpf::core::SolverConfig makeConfig(const Workload& w, std::uint64_t seed) {
    tpf::core::SolverConfig cfg;
    cfg.globalCells = w.cells;
    cfg.blockSize = {w.cells.x, w.cells.y, w.cells.z / w.ranks};
    cfg.threads = w.threads;
    // The physics of tpf-sim's defaults: G = 0.5 K/cell, v = 0.02 cells/t,
    // mu-overlap on.
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = w.zEut0 >= 0.0 ? w.zEut0 : 0.375 * w.cells.z;
    cfg.init.fillHeight = w.fillHeight >= 0 ? w.fillHeight : 3 * w.cells.z / 16;
    cfg.init.seed = seed;
    cfg.init.seedsPerArea = w.grainCells;
    cfg.overlapMu = true;
    cfg.window.enabled = w.window;
    return cfg;
}

} // namespace tpfbench
