/// \file main.cpp
/// tpf-bench: the end-to-end benchmark of the solver (see README.md).
///
///   tpf-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///             [--out DIR]         one run of one workload; the last line
///                                 of stdout is the JSON result
///   tpf-bench --all [--out DIR]   every workload untraced and traced, one
///                                 process each; writes DIR/results.json
///   tpf-bench --smoke             --all at tiny sizes plus a decomposition
///                                 check of the output digest
///   tpf-bench --rep --workload <name> ...
///                                 one untraced rep; a run starts each of
///                                 its untraced reps this way
///
/// Exit codes: 0 ok, 1 a rep failed or an output check failed, 2 usage
/// error or a workload needing more cores than this host has.

#include <spawn.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/kernel_dispatch.h"
#include "json.h"
#include "obs/trace.h"
#include "perf/flops.h"
#include "rep.h"
#include "stats.h"

extern char** environ;

namespace tpfbench {
namespace {

namespace fs = std::filesystem;

struct Options {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = -1.0; ///< < 0: BENCHMARK.json's run_seconds
    int trace = 0;
    std::string out = ".bench_out";
    bool all = false;
    bool smoke = false;
    bool tiny = false;
    bool rep = false; ///< run one untraced rep for a parent tpf-bench
};

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

int hostCores() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return CPU_COUNT(&set);
}

long l3Bytes() { return std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE)); }

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        if (!s.empty()) return s;
    }
#endif
    return "unknown";
}

std::string fingerprintJson() {
    std::ostringstream o;
    o << "{\"nproc\": " << hostCores()
      << ", \"cpu_model\": " << jsonString(cpuModel())
      << ", \"l3_bytes\": " << l3Bytes()
      << ", \"kernel_target\": "
      << jsonString(tpf::core::activeKernelTarget()->name)
      << ", \"compiler\": " << jsonString(TPF_BENCH_COMPILER)
      << ", \"build_type\": " << jsonString(TPF_BENCH_BUILD_TYPE)
      << ", \"git_commit\": " << jsonString(TPF_BENCH_GIT_COMMIT) << "}";
    return o.str();
}

// ---------------------------------------------------------------------------
// BENCHMARK.json and the recorded digests
// ---------------------------------------------------------------------------

const std::string kSourceDir = TPF_BENCH_SOURCE_DIR;

struct Declared {
    std::string name, unit;
};

struct Benchmark {
    double runSeconds = 0.0;
    std::vector<Declared> endToEnd, perLayer;
};

Benchmark loadBenchmark() {
    const Json doc = readJsonFile(kSourceDir + "/../BENCHMARK.json");
    auto member = [&](const char* key) {
        const Json* v = doc.get(key);
        if (v == nullptr)
            throw std::runtime_error(std::string("BENCHMARK.json: no ") + key);
        return v;
    };
    Benchmark b;
    b.runSeconds = member("run_seconds")->number;
    auto metrics = [&](const char* key) {
        std::vector<Declared> out;
        for (const Json& m : member(key)->items)
            out.push_back({m.get("name")->str, m.get("unit")->str});
        return out;
    };
    b.endToEnd = metrics("end_to_end");
    b.perLayer = metrics("per_layer");
    return b;
}

/// Recorded CRC-32 of the final analysis row for (workload, seed), or ""
/// when none is recorded. A workload whose inputs do not depend on the seed
/// records its digest under "*".
std::string recordedDigest(const std::string& workload, std::uint64_t seed) {
    const Json doc = readJsonFile(kSourceDir + "/digests.json");
    const Json* w = doc.get(workload);
    if (w == nullptr) return "";
    if (const Json* d = w->get(std::to_string(seed))) return d->str;
    if (const Json* d = w->get("*")) return d->str;
    return "";
}

std::string hex(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct Metric {
    std::string name, unit;
    std::vector<double> samples;
};

class MetricList {
public:
    void add(const std::string& name, const std::string& unit,
             std::vector<double> samples) {
        list_.push_back({name, unit, std::move(samples)});
    }
    void add(const std::string& name, const std::string& unit, double v) {
        add(name, unit, std::vector<double>{v});
    }
    const Metric* find(const std::string& name) const {
        for (const auto& m : list_)
            if (m.name == name) return &m;
        return nullptr;
    }
    const std::vector<Metric>& all() const { return list_; }

private:
    std::vector<Metric> list_;
};

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// An untraced run holds at least this many reps, however long they take.
constexpr std::size_t kMinReps = 3;
/// A traced run repeats its (untraced, traced) pair of reps until the
/// traced reps hold this many steps, so core.step.ms_p95 keeps ten samples
/// beyond it.
constexpr int kStepSamples = 200;

/// The metrics of an untraced run whose reps all passed (BENCHMARK.json
/// end_to_end, plus output_mib_per_kstep, which is zero on some workloads
/// and so only lands in the results file).
MetricList endToEndMetrics(const Workload& w,
                           const std::vector<RepResult>& reps) {
    std::vector<double> mlups, setups, peakRss, output;
    for (const auto& r : reps) {
        mlups.push_back(r.mlups);
        setups.push_back(r.setupS);
        peakRss.push_back(r.peakRssMiB);
        output.push_back(mib(r.outputBytes) * 1000.0 / w.timedSteps);
    }
    MetricList m;
    m.add("mlups", "MLUP/s", mlups);
    m.add("setup_s", "s", setups);
    m.add("peak_rss_mib", "MiB", peakRss);
    m.add("output_mib_per_kstep", "MiB/kstep", output);
    return m;
}

/// Rank 0's timed steps in the traced reps, from its spans.
struct TracedSteps {
    std::vector<double> stepMs;    ///< each Solver::run(1) + its checkpoint
    std::vector<double> computeMs; ///< the same minus hooks and checkpoint
    double analysisS = 0.0, meshS = 0.0, checkpointS = 0.0, stepsS = 0.0;
};

TracedSteps tracedSteps(const std::vector<SpanLog::Span>& spans) {
    TracedSteps t;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "step") continue;
        const int idx = static_cast<int>(i);
        const double step = spans[i].t1 - spans[i].t0;
        const double a = childSeconds(spans, idx, "analysis");
        const double m = childSeconds(spans, idx, "mesh");
        const double c = childSeconds(spans, idx, "checkpoint");
        t.stepMs.push_back(step * 1e3);
        t.computeMs.push_back((step - a - m - c) * 1e3);
        t.analysisS += a;
        t.meshS += m;
        t.checkpointS += c;
        t.stepsS += step;
    }
    return t;
}

/// The metrics of a traced run: \p plain and \p traces are its untraced
/// and traced reps, \p rootSpans rank 0's spans of all traced reps.
MetricList perLayerMetrics(const Workload& w,
                           const std::vector<RepResult>& plain,
                           const std::vector<RepResult>& traces,
                           const std::vector<SpanLog::Span>& rootSpans,
                           const VmpiProbes& v, const HostProbes& h) {
    const RankProbes& p = traces.back().probes;
    const TracedSteps t = tracedSteps(rootSpans);
    std::vector<double> plainMlups, tracedMlups;
    for (const auto& r : plain) plainMlups.push_back(r.mlups);
    double wallS = 0.0, exchangeBytes = 0.0, outputBytes = 0.0;
    for (const auto& r : traces) {
        tracedMlups.push_back(r.mlups);
        wallS += r.wallS;
        exchangeBytes += r.exchangeBytes;
        outputBytes += r.outputBytes;
    }
    const double steps =
        static_cast<double>(w.timedSteps) * static_cast<double>(traces.size());
    MetricList m;

    m.add("core.kernel.phi_mlups", "MLUP/s", p.phiMlups);
    m.add("core.kernel.mu_mlups", "MLUP/s", p.muMlups);
    // Roofline of one core over phi+mu. Bytes per cell are computed from
    // the field sizes (perf/flops.h), not measured.
    using namespace tpf::perf;
    const double bytes = kPhiBytesPerCell + kMuBytesPerCell;
    const double flops = kPhiFlopsPerCell + kMuFlopsPerCell;
    const double boundSecPerCell =
        std::max(bytes / (h.triad1GiBs * 1024.0 * 1024.0 * 1024.0),
                 flops / (h.peakGflops * 1e9));
    const double achievedSecPerCell =
        1.0 / (p.phiMlups * 1e6) + 1.0 / (p.muMlups * 1e6);
    m.add("core.kernel.roofline_frac", "fraction",
          boundSecPerCell / achievedSecPerCell);
    m.add("core.sweep.fanout_eff", "fraction", p.fanoutEff);

    const double computeMs = median(t.computeMs);
    m.add("core.step.ms_p50", "ms", percentile(t.stepMs, 50.0));
    m.add("core.step.ms_p95", "ms", percentile(t.stepMs, 95.0));
    m.add("core.step.samples", "count", static_cast<double>(t.stepMs.size()));
    m.add("core.step.compute_ms", "ms", computeMs);
    m.add("core.step.rank_imbalance", "ratio", p.rankImbalance);
    m.add("core.step.residual_frac", "fraction",
          (computeMs - p.slowestSweepMs - p.exchangeMs) / computeMs);

    m.add("comm.exchange_ms", "ms", p.exchangeMs);
    m.add("comm.bytes_per_step", "B/step", exchangeBytes / steps);
    m.add("vmpi.pingpong_us", "us", v.pingpongUs);
    m.add("vmpi.allreduce_us", "us", v.allreduceUs);

    m.add("analysis.sample_ms", "ms", p.analysisMs);
    m.add("analysis.frac", "fraction", t.analysisS / wallS);
    m.add("io.mesh.frame_ms", "ms", p.meshFrameMs);
    m.add("io.mesh.extract_ms", "ms", p.meshExtractMs);
    m.add("io.mesh.simplify_ms", "ms", p.meshSimplifyMs);
    m.add("io.mesh.gather_ms", "ms", p.meshGatherMs);
    m.add("io.mesh.frac", "fraction", t.meshS / wallS);
    m.add("io.checkpoint.write_ms", "ms", p.checkpointWriteMs);
    m.add("io.checkpoint.write_gibs", "GiB/s",
          p.checkpointMiB / 1024.0 / (p.checkpointWriteMs / 1e3));
    m.add("io.checkpoint.mib", "MiB", p.checkpointMiB);
    m.add("io.checkpoint.read_ms", "ms", p.checkpointReadMs);
    m.add("io.checkpoint.frac", "fraction", t.checkpointS / wallS);
    m.add("io.output_mib_per_kstep", "MiB/kstep",
          mib(outputBytes) * 1000.0 / steps);

    m.add("perf.stream_triad_gibs", "GiB/s", h.triad1GiBs);
    m.add("perf.stream_triad_cores_gibs", "GiB/s", h.triadCoresGiBs);
    m.add("perf.peak_gflops", "GFLOP/s", h.peakGflops);

    m.add("bench.trace_overhead_frac", "fraction",
          (median(plainMlups) - median(tracedMlups)) / median(plainMlups));
    m.add("bench.layer_sum_residual_frac", "fraction",
          std::abs(wallS - t.stepsS) / wallS);
    m.add("bench.untraced_mlups", "MLUP/s", plainMlups);
    m.add("bench.traced_mlups", "MLUP/s", tracedMlups);
    return m;
}

std::string summaryJson(const Metric& m) {
    const Summary s = summarize(m.samples);
    std::ostringstream o;
    o << "{\"unit\": " << jsonString(m.unit) << ", \"n\": " << s.n
      << ", \"median\": " << jsonNumber(s.median)
      << ", \"q1\": " << jsonNumber(s.q1) << ", \"q3\": " << jsonNumber(s.q3)
      << ", \"min\": " << jsonNumber(s.min)
      << ", \"max\": " << jsonNumber(s.max) << "}";
    return o.str();
}

// ---------------------------------------------------------------------------
// Processes of this binary
// ---------------------------------------------------------------------------

/// This binary as it was invoked (argv[0]).
std::string gSelf;

/// Run this binary with \p args and wait for it; returns its exit code.
int runSelf(const std::vector<std::string>& args) {
    std::vector<std::string> all = {gSelf};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawnp(&pid, gSelf.c_str(), nullptr, nullptr, argv.data(),
                     environ) != 0)
        return 1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR) return 1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

std::string workDirOf(const Workload& w, const Options& opt) {
    return opt.out + "/" + w.name + "-work";
}

/// An untraced rep of \p w. A Restart workload loads the checkpoint that
/// its run writes first.
RepSpec untracedSpec(const Workload& w, const Options& opt) {
    RepSpec spec;
    spec.workload = &w;
    spec.seed = opt.seed;
    spec.dir = workDirOf(w, opt) + "/rep";
    if (w.init == InitKind::Restart)
        spec.restartBase = workDirOf(w, opt) + "/restart-base";
    return spec;
}

/// --rep: run one untraced rep of \p w in this process, which the run
/// started for it alone, and leave the result in the work directory. Each
/// rep so starts from the allocator state of a fresh tpf-sim process, and
/// ru_maxrss of this process and of its reaped rank processes is the rep's
/// own peak. With all reps in one process, the heap that earlier reps left
/// behind made the peak of production differ by up to 25% between two runs
/// of one seed.
int runRepProcess(const Workload& w, const Options& opt) {
    const RepResult r = runRep(untracedSpec(w, opt));
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    const double peakKiB =
        static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss));
    std::ofstream f(workDirOf(w, opt) + "/rep-result.json");
    f << "{\"ok\": " << (r.ok ? "true" : "false")
      << ", \"error\": " << jsonString(r.error)
      << ", \"setup_s\": " << jsonNumber(r.setupS)
      << ", \"wall_s\": " << jsonNumber(r.wallS)
      << ", \"mlups\": " << jsonNumber(r.mlups)
      << ", \"digest\": " << r.digest
      << ", \"digest_row\": " << jsonString(r.digestRow)
      << ", \"output_bytes\": " << jsonNumber(r.outputBytes)
      << ", \"exchange_bytes\": " << jsonNumber(r.exchangeBytes)
      << ", \"peak_rss_mib\": " << jsonNumber(peakKiB / 1024.0) << "}\n";
    f.close();
    return f ? 0 : 1;
}

/// One untraced rep of \p w in a new process of this binary (--rep).
RepResult runRepInChild(const Workload& w, const Options& opt) {
    const std::string path = workDirOf(w, opt) + "/rep-result.json";
    fs::remove(path);
    std::vector<std::string> args = {"--rep", "--workload", w.name,
                                     "--seed", std::to_string(opt.seed),
                                     "--out",  opt.out};
    if (opt.tiny) args.push_back("--tiny");
    const int code = runSelf(args);
    RepResult r;
    try {
        const Json d = readJsonFile(path);
        auto field = [&](const char* key) -> const Json& {
            const Json* v = d.get(key);
            if (v == nullptr) throw std::runtime_error(std::string("no ") + key);
            return *v;
        };
        r.ok = field("ok").boolean;
        r.error = field("error").str;
        r.setupS = field("setup_s").number;
        r.wallS = field("wall_s").number;
        r.mlups = field("mlups").number;
        r.digest = static_cast<std::uint32_t>(field("digest").number);
        r.digestRow = field("digest_row").str;
        r.outputBytes = field("output_bytes").number;
        r.exchangeBytes = field("exchange_bytes").number;
        r.peakRssMiB = field("peak_rss_mib").number;
    } catch (const std::exception& e) {
        r.ok = false;
        r.error = "rep process exited with code " + std::to_string(code) +
                  " and left no result: " + e.what();
    }
    return r;
}

int runWorkload(const Workload& w, const Options& opt) {
    const int cores = w.ranks * w.threads;
    if (cores > hostCores()) {
        std::fprintf(stderr,
                     "tpf-bench: workload %s needs %d ranks x %d threads = %d "
                     "cores, this host has %d; refusing to oversubscribe\n",
                     w.name.c_str(), w.ranks, w.threads, cores, hostCores());
        return 2;
    }
    const Benchmark bench = loadBenchmark();
    const double seconds = opt.seconds >= 0.0 ? opt.seconds : bench.runSeconds;
    const bool traced = opt.trace == 1;
    const std::string workDir = workDirOf(w, opt);
    const std::string tracePath = opt.out + "/" + w.name + ".trace.json";
    fs::remove_all(workDir);
    fs::create_directories(workDir);

    std::fprintf(stderr,
                 "tpf-bench: %s seed %llu, %dx%dx%d cells, %d rank(s) x %d "
                 "thread(s) over %s, kernel target %s, %s\n",
                 w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                 w.cells.x, w.cells.y, w.cells.z, w.ranks, w.threads,
                 tpf::vmpi::transportName(w.transport),
                 tpf::core::activeKernelTarget()->name,
                 traced ? "traced" : "untraced");

    const double start = now();
    std::vector<std::string> errors;
    std::vector<RepResult> reps, traces; // untraced and traced reps
    const RepSpec spec = untracedSpec(w, opt);
    if (w.init == InitKind::Restart) {
        try {
            writeRestartBase(w, opt.seed, spec.restartBase);
        } catch (const std::exception& e) {
            errors.push_back(std::string("restart checkpoint: ") + e.what());
        }
    }
    // A failed rep ends the run.
    auto healthy = [&] {
        return errors.empty() && (reps.empty() || reps.back().ok) &&
               (traces.empty() || traces.back().ok);
    };

    VmpiProbes vp;
    HostProbes hp;
    if (!traced) {
        // Closed loop: each rep starts when the previous one ended, each in
        // a process of its own. Once kMinReps have run, another starts only
        // if one as long as the last still ends within --seconds.
        while (healthy()) {
            const double r0 = now();
            reps.push_back(runRepInChild(w, opt));
            const double t = now();
            if (reps.size() >= kMinReps && t - start + (t - r0) > seconds)
                break;
        }
    } else {
        // Untraced and traced reps in turn, all in this process so that
        // they differ only in the tracing; the last traced rep also runs the
        // probes on its final state.
        const int pairs = (kStepSamples + w.timedSteps - 1) / w.timedSteps;
        for (int i = 0; i < pairs && healthy(); ++i) {
            reps.push_back(runRep(spec));
            if (!healthy()) break;
            RepSpec t = spec;
            t.traced = true;
            t.probes = i + 1 == pairs;
            traces.push_back(runRep(t));
        }
        if (healthy()) {
            try {
                const std::size_t ghostBytes =
                    static_cast<std::size_t>(w.cells.x) *
                    static_cast<std::size_t>(w.cells.y) * tpf::core::N *
                    sizeof(double);
                const auto transport = w.ranks > 1
                                           ? w.transport
                                           : tpf::vmpi::TransportKind::Thread;
                vp = runVmpiProbes(transport, w.ranks, ghostBytes);
                const long l3MiB = l3Bytes() / (1024 * 1024);
                // STREAM arrays of four times the L3 each, so the triad
                // streams from DRAM (--tiny: cache-sized, the smoke run
                // checks plumbing).
                const int arrayMiB = opt.tiny ? 16
                                     : l3MiB > 0 ? 4 * static_cast<int>(l3MiB)
                                                 : 512;
                hp = runHostProbes(cores, arrayMiB);
            } catch (const std::exception& e) {
                errors.push_back(std::string("probes: ") + e.what());
            }
        }
    }
    fs::remove_all(workDir);

    // Output check: every rep must reproduce the recorded digest, or, for
    // an unrecorded seed or the tiny sizes, the first rep's.
    const std::string recorded =
        opt.tiny ? std::string() : recordedDigest(w.name, opt.seed);
    std::string reference = recorded;
    int failed = errors.empty() ? 0 : 1;
    bool mismatch = false;
    std::vector<const RepResult*> all;
    for (const auto& r : reps) all.push_back(&r);
    for (const auto& r : traces) all.push_back(&r);
    for (const RepResult* r : all) {
        if (!r->ok) {
            ++failed;
            errors.push_back(r->error);
            continue;
        }
        if (reference.empty()) reference = hex(r->digest);
        if (hex(r->digest) != reference) {
            ++failed;
            mismatch = true;
            errors.push_back("digest " + hex(r->digest) + " != " + reference +
                             " (row " + r->digestRow + ")");
        }
    }
    const int attempted = std::max<int>(1, static_cast<int>(all.size()));
    const char* digestStatus = mismatch           ? "mismatch"
                               : recorded.empty() ? "unverified"
                                                  : "verified";

    MetricList metrics;
    std::vector<std::pair<std::string, double>> selfS; // rank 0, per span name
    if (failed == 0) {
        if (traced) {
            std::vector<std::vector<SpanLog::Span>> perRank(
                static_cast<std::size_t>(w.ranks));
            for (const auto& t : traces)
                for (std::size_t r = 0; r < perRank.size(); ++r)
                    appendSpans(perRank[r], t.rankSpans[r]);
            selfS = selfTimes(perRank[0]);
            metrics = perLayerMetrics(w, reps, traces, perRank[0], vp, hp);
            try {
                writeChromeTrace(tracePath, perRank);
                const tpf::obs::TraceCheck check =
                    tpf::obs::validateTraceFile(tracePath);
                if (!check.ok) errors.push_back("trace: " + check.message);
            } catch (const std::exception& e) {
                errors.push_back(std::string("trace: ") + e.what());
            }
            const Metric* residual =
                metrics.find("bench.layer_sum_residual_frac");
            if (residual->samples[0] >= 0.02)
                errors.push_back("layers do not add up to the wall time "
                                 "within 2%");
        } else {
            metrics = endToEndMetrics(w, reps);
        }
    }
    // Reported whether or not a rep failed; the JSON line carries the same
    // count as failed / attempted.
    if (!traced)
        metrics.add("failed_frac", "fraction",
                    static_cast<double>(failed) / static_cast<double>(attempted));

    // Every metric BENCHMARK.json declares for this mode must be emitted,
    // finite, and in the declared unit.
    const auto& declared = traced ? bench.perLayer : bench.endToEnd;
    std::string values;
    for (const Declared& d : declared) {
        const Metric* m = metrics.find(d.name);
        if (m == nullptr || m->samples.empty()) {
            if (failed == 0)
                errors.push_back("metric " + d.name + " not measured");
            continue;
        }
        const double v = summarize(m->samples).median;
        if (m->unit != d.unit || !std::isfinite(v)) {
            errors.push_back("metric " + d.name + " = " + jsonNumber(v) + " " +
                             m->unit + ", declared in " + d.unit);
            continue;
        }
        values += std::string(values.empty() ? "" : ", ") + jsonString(d.name) +
                  ": {\"value\": " + jsonNumber(v) +
                  ", \"unit\": " + jsonString(d.unit) + "}";
    }
    const bool correct = failed == 0 && errors.empty();

    for (const auto& m : metrics.all()) {
        const Summary s = summarize(m.samples);
        std::fprintf(stderr, "  %-12s %-32s %14.6g %-10s (n=%d, %.6g..%.6g)\n",
                     w.name.c_str(), m.name.c_str(), s.median, m.unit.c_str(),
                     s.n, s.min, s.max);
    }
    std::fprintf(stderr, "  %-12s digest %s (%s)\n", w.name.c_str(),
                 reference.c_str(), digestStatus);
    for (const auto& e : errors)
        std::fprintf(stderr, "tpf-bench: %s\n", e.c_str());

    // The per-run results file: every metric with its spread.
    {
        std::ofstream f(opt.out + "/" + w.name + ".trace" +
                        std::to_string(opt.trace) + ".json");
        f << "{\"workload\": " << jsonString(w.name)
          << ", \"trace\": " << opt.trace << ", \"seed\": " << opt.seed
          << ", \"seconds\": " << jsonNumber(seconds) << ", \"cells\": ["
          << w.cells.x << ", " << w.cells.y << ", " << w.cells.z
          << "], \"ranks\": " << w.ranks << ", \"threads\": " << w.threads
          << ", \"transport\": "
          << jsonString(tpf::vmpi::transportName(w.transport))
          << ", \"timed_steps\": " << w.timedSteps
          << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"correct\": " << (correct ? "true" : "false")
          << ", \"digest\": " << jsonString(reference)
          << ", \"digest_status\": " << jsonString(digestStatus)
          << ",\n \"metrics\": {";
        for (std::size_t i = 0; i < metrics.all().size(); ++i)
            f << (i ? ",\n   " : "\n   ") << jsonString(metrics.all()[i].name)
              << ": " << summaryJson(metrics.all()[i]);
        f << "}";
        if (traced && failed == 0) {
            f << ",\n \"self_ms\": {";
            for (std::size_t i = 0; i < selfS.size(); ++i)
                f << (i ? ", " : "") << jsonString(selfS[i].first) << ": "
                  << jsonNumber(selfS[i].second * 1e3);
            f << "},\n \"trace_file\": " << jsonString(w.name + ".trace.json");
        }
        f << ",\n \"errors\": [";
        for (std::size_t i = 0; i < errors.size(); ++i)
            f << (i ? ", " : "") << jsonString(errors[i]);
        f << "]}\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, values.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --all / --smoke
// ---------------------------------------------------------------------------

int runAll(const Options& opt) {
    fs::create_directories(opt.out);
    int worst = 0;
    std::string runs;
    for (const auto& w : workloads()) {
        for (const int trace : {0, 1}) {
            std::vector<std::string> args = {
                "--workload", w.name, "--seed", std::to_string(opt.seed),
                "--trace", std::to_string(trace), "--out", opt.out};
            if (opt.seconds >= 0.0) {
                args.push_back("--seconds");
                args.push_back(jsonNumber(opt.seconds));
            }
            if (opt.tiny) args.push_back("--tiny");
            const std::string runFile = opt.out + "/" + w.name + ".trace" +
                                        std::to_string(trace) + ".json";
            fs::remove(runFile);
            const int code = runSelf(args);
            if (code != 0) worst = code == 2 || worst == 2 ? 2 : 1;
            std::ifstream in(runFile);
            std::stringstream text;
            text << in.rdbuf();
            if (!text.str().empty())
                runs += std::string(runs.empty() ? "" : ",\n") + text.str();
        }
    }
    std::ofstream f(opt.out + "/results.json");
    f << "{\"schema\": \"tpf-bench-results v1\", \"seed\": " << opt.seed
      << ",\n \"fingerprint\": " << fingerprintJson() << ",\n \"runs\": [\n"
      << runs << "]}\n";
    std::fprintf(stderr, "tpf-bench: wrote %s/results.json\n", opt.out.c_str());
    return worst;
}

/// --smoke: every workload at tiny size, fewest reps, then the check that
/// makes the digest meaningful: the same problem on 1 rank x 1 thread and
/// on 2 ranks x 2 threads must end in the same analysis row.
int runSmoke(Options opt) {
    opt.tiny = true;
    opt.seconds = 0.0;
    int code = runAll(opt);

    Workload serial = tinyVariant(*findWorkload("production"));
    serial.transport = tpf::vmpi::TransportKind::Thread;
    serial.ranks = 1;
    serial.threads = 1;
    Workload hybrid = serial;
    hybrid.ranks = 2;
    hybrid.threads = 2;
    RepSpec a;
    a.workload = &serial;
    a.seed = opt.seed;
    a.dir = opt.out + "/decomposition-1x1";
    RepSpec b = a;
    b.workload = &hybrid;
    b.dir = opt.out + "/decomposition-2x2";
    const RepResult ra = runRep(a);
    const RepResult rb = runRep(b);
    if (!ra.ok || !rb.ok || ra.digest != rb.digest) {
        std::fprintf(stderr,
                     "tpf-bench: decomposition check FAILED: 1x1 %s%s, 2x2 "
                     "%s%s\n",
                     hex(ra.digest).c_str(), ra.error.c_str(),
                     hex(rb.digest).c_str(), rb.error.c_str());
        return code == 2 ? 2 : 1;
    }
    std::fprintf(stderr, "tpf-bench: decomposition check ok: 1x1 and 2x2 "
                         "both end in digest %s\n",
                 hex(ra.digest).c_str());
    return code;
}

void usage() {
    std::fprintf(
        stderr,
        "usage: tpf-bench --workload <name> [--seed N] [--seconds S] "
        "[--trace 0|1] [--out DIR] [--tiny]\n"
        "       tpf-bench --all [--seed N] [--seconds S] [--out DIR]\n"
        "       tpf-bench --smoke [--out DIR]\n"
        "workloads:");
    for (const auto& w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr,
                 "\n--seconds defaults to BENCHMARK.json's run_seconds; "
                 "--tiny runs the smoke-test size; --rep is how a run starts "
                 "each of its untraced reps in a process of its own.\n");
}

bool parseArgs(int argc, char** argv, Options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--all") {
            opt.all = true;
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--rep") {
            opt.rep = true;
        } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
                   a == "--trace" || a == "--out") {
            const char* v = value();
            if (v == nullptr) return false;
            char* end = nullptr;
            if (a == "--workload") {
                opt.workload = v;
            } else if (a == "--out") {
                opt.out = v;
            } else if (a == "--seed") {
                opt.seed = std::strtoull(v, &end, 10);
                if (*end != '\0') return false;
            } else if (a == "--seconds") {
                opt.seconds = std::strtod(v, &end);
                if (*end != '\0' || opt.seconds < 0.0) return false;
            } else {
                opt.trace = static_cast<int>(std::strtol(v, &end, 10));
                if (*end != '\0' || (opt.trace != 0 && opt.trace != 1))
                    return false;
            }
        } else {
            return false;
        }
    }
    const int modes = (opt.all ? 1 : 0) + (opt.smoke ? 1 : 0) +
                      (opt.workload.empty() ? 0 : 1);
    return modes == 1 && (!opt.rep || !opt.workload.empty());
}

} // namespace
} // namespace tpfbench

int main(int argc, char** argv) {
    using namespace tpfbench;
    gSelf = argv[0];
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    try {
        if (opt.smoke) return runSmoke(opt);
        if (opt.all) return runAll(opt);
        const Workload* w = findWorkload(opt.workload);
        if (w == nullptr) {
            std::fprintf(stderr, "tpf-bench: unknown workload '%s'\n",
                         opt.workload.c_str());
            usage();
            return 2;
        }
        fs::create_directories(opt.out);
        const Workload run = opt.tiny ? tinyVariant(*w) : *w;
        return opt.rep ? runRepProcess(run, opt) : runWorkload(run, opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tpf-bench: %s\n", e.what());
        return 1;
    }
}
