/// Reproduces **Figure 8**: "Time spent in communication, SuperMUC,
/// blocksize 60^3" — the per-timestep time inside the phi and mu
/// communication routines, blocked vs. mu communication hiding, as a function
/// of the rank count.
///
/// Expected shape (paper): hiding reduces the *measured* mu communication
/// time (what remains is packing/unpacking), and "the version with only mu
/// communication hiding yields the best overall performance". Hiding the phi
/// communication as well needs a split mu-sweep whose overhead exceeds the
/// gain; the solver no longer offers it (docs/TRANSPORT.md records the last
/// measurement of all four combinations).
///
/// Each rank count runs kPairs interleaved blocked/mu-overlap pairs,
/// alternating which side goes first, and reports the median [min, max] step
/// time of each side: one run of each is inside the run-to-run spread.
///
/// Flags:
///   --transport <thread|shm>      vmpi backend for the ranks (default:
///                                 $TPF_TRANSPORT or thread). `shm` forks
///                                 real processes, so the overlap numbers
///                                 are measured against genuine multi-
///                                 process communication (docs/TRANSPORT.md).
///   --ranks <a,b,...>             rank counts to measure (default 2,4 —
///                                 deliberately independent of
///                                 hardware_concurrency so the bench also
///                                 runs on single-core CI boxes).
///   --steps <n>                   timed steps per measurement (default 6).
///   --json <path>                 upsert the median whole-step MLUP/s per
///                                 config plus the ratio of the median
///                                 blocked to mu-overlap step times into the
///                                 BENCH_<n>.json trajectory.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/solver.h"
#include "perf/bench_json.h"
#include "perf/perf.h"
#include "util/table.h"

using namespace tpf;
using core::Scenario;
using core::SolverConfig;

namespace {

struct CommTimes {
    double phiMs = 0.0;
    double muMs = 0.0;
    double stepMs = 0.0;
};

constexpr int kBlock = 40;
constexpr int kPairs = 10;

/// Run `steps` solver steps on `ranks` ranks (one 40^3 block per rank,
/// stacked in z) and report the mean per-step communication time.
CommTimes measure(vmpi::TransportKind kind, int ranks, bool overlapMu,
                  int steps) {
    CommTimes result;
    // Under the shm transport rank 0 runs in the parent process
    // (docs/TRANSPORT.md), so the isRoot() writes below survive the fork.
    vmpi::runParallel(kind, ranks, [&](vmpi::Comm& comm) {
        SolverConfig cfg;
        const int bs = kBlock;
        cfg.globalCells = {bs, bs, bs * ranks};
        cfg.blockSize = {bs, bs, bs};
        cfg.overlapMu = overlapMu;
        cfg.model.temp.gradient = 0.5;
        cfg.model.temp.zEut0 = 0.45 * bs * ranks;
        cfg.init.fillHeight = static_cast<int>(0.4 * bs * ranks);

        core::Solver s(cfg, &comm);
        s.initialize();
        s.run(2); // warmup
        s.phiExchange().resetTimers();
        s.muExchange().resetTimers();
        const double t0 = perf::now();
        s.run(steps);
        const double wall = perf::now() - t0;

        const double phiSec =
            s.phiExchange().startSeconds() + s.phiExchange().waitSeconds();
        const double muSec =
            s.muExchange().startSeconds() + s.muExchange().waitSeconds();
        // Use the maximum over ranks (the critical path).
        const double phiMax = comm.allreduceMax(phiSec);
        const double muMax = comm.allreduceMax(muSec);
        if (comm.isRoot()) {
            result.phiMs = phiMax / steps * 1000.0;
            result.muMs = muMax / steps * 1000.0;
            result.stepMs = wall / steps * 1000.0;
        }
    });
    return result;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "median [min, max]" of \p v.
std::string spread(const std::vector<double>& v, int digits) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return Table::num(median(v), digits) + " [" + Table::num(*lo, digits) +
           ", " + Table::num(*hi, digits) + "]";
}

double mlupsOf(int ranks, double stepMs) {
    const double cells = static_cast<double>(kBlock) * kBlock * kBlock * ranks;
    return cells / (stepMs / 1000.0) / 1e6;
}

std::vector<int> parseRankList(const std::string& text) {
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string tok = text.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        const int r = std::atoi(tok.c_str());
        if (r < 1) return {};
        out.push_back(r);
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    std::string jsonPath;
    std::vector<int> rankList{2, 4};
    int steps = 6;
    vmpi::TransportKind kind = vmpi::defaultTransport();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
            rankList = parseRankList(argv[++i]);
        } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
            steps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
            if (!vmpi::parseTransportName(argv[++i], kind)) {
                std::fprintf(stderr, "unknown transport '%s'\n", argv[i]);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--transport <thread|shm>] "
                         "[--ranks <a,b,...>] [--steps <n>] [--json <path>]\n",
                         argv[0]);
            return 2;
        }
    }
    if (rankList.empty() || steps < 1) {
        std::fprintf(stderr, "bad --ranks/--steps\n");
        return 2;
    }
    const char* tname = vmpi::transportName(kind);

    std::printf("== Figure 8: time spent in communication per time step "
                "(40^3 block per rank, %s transport, %d interleaved pairs; "
                "median [min, max]) ==\n\n",
                tname, kPairs);

    Table t({"ranks", "phi [ms]", "mu no-overlap [ms]", "mu overlap [ms]",
             "step blocked [ms]", "step mu-overlap [ms]", "overlap ratio",
             "mu-overlap wins"});
    std::vector<perf::BenchEntry> entries;

    for (const int ranks : rankList) {
        std::vector<double> phiMs, muPlainMs, muHiddenMs, plainStep, muStep;
        int muWins = 0;
        for (int pair = 0; pair < kPairs; ++pair) {
            // Alternate which side runs first so drift in the host's load
            // does not favour one of them.
            CommTimes plain, muOnly;
            if (pair % 2 == 0) {
                plain = measure(kind, ranks, false, steps);
                muOnly = measure(kind, ranks, true, steps);
            } else {
                muOnly = measure(kind, ranks, true, steps);
                plain = measure(kind, ranks, false, steps);
            }
            phiMs.push_back(plain.phiMs);
            muPlainMs.push_back(plain.muMs);
            muHiddenMs.push_back(muOnly.muMs);
            plainStep.push_back(plain.stepMs);
            muStep.push_back(muOnly.stepMs);
            if (muOnly.stepMs < plain.stepMs) ++muWins;
        }
        // The honest headline number: how much faster the mu-overlapped step
        // is than the fully blocked one, measured (not modeled).
        const double plainMed = median(plainStep);
        const double muMed = median(muStep);
        const double ratio = plainMed / muMed;
        const std::string wins =
            std::to_string(muWins) + "/" + std::to_string(kPairs);

        t.addRow({std::to_string(ranks), Table::num(median(phiMs), 3),
                  Table::num(median(muPlainMs), 3),
                  Table::num(median(muHiddenMs), 3), spread(plainStep, 2),
                  spread(muStep, 2), Table::num(ratio, 3), wins});

        const std::string tag =
            std::string(tname) + " r" + std::to_string(ranks) + " 40^3";
        entries.push_back({"bench_fig8_comm_overlap", "blocked " + tag,
                           mlupsOf(ranks, plainMed), 0.0});
        entries.push_back({"bench_fig8_comm_overlap", "mu-overlap " + tag,
                           mlupsOf(ranks, muMed), 0.0});
        // Stored in the mlups slot — it is a dimensionless speedup, as the
        // variant label says.
        entries.push_back({"bench_fig8_comm_overlap",
                           "overlap-ratio (blocked/mu-overlap step) " + tag,
                           ratio, 0.0});

        std::printf("  [%s r%d] step: blocked %s ms, mu-overlap %s ms "
                    "-> overlap ratio %.3f, mu-overlap won %s pairs\n",
                    tname, ranks, spread(plainStep, 2).c_str(),
                    spread(muStep, 2).c_str(), ratio, wins.c_str());
    }
    std::printf("\n");
    t.print();

    if (!jsonPath.empty()) {
        perf::upsertBenchFile(jsonPath, entries);
        std::printf("\nwrote %s\n", jsonPath.c_str());
    }

    std::printf("\nPaper's observations to verify: the measured mu "
                "communication time drops with hiding enabled (what remains is "
                "packing/unpacking), and the overlap ratio exceeds 1 once "
                "every rank has a spare core to hide the exchange behind. "
                "Oversubscribed hosts read near or below 1.\n");
    return 0;
}
