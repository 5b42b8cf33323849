#pragma once
/// \file bench_json.h
/// The in-repo performance trajectory: benchmark binaries emit their MLUP/s
/// measurements into a versioned `BENCH_<n>.json` at the repository root, one
/// file per PR, so the throughput history travels with the code the way the
/// golden checkpoints of tests/golden/ carry the physics history.
///
/// A document looks like
///
///     {
///       "schema": "tpf-bench v1",
///       "machine": "x86-64 fma avx2 avx512f, 4 hw threads",
///       "entries": [
///         {
///           "bench": "bench_roofline",
///           "variant": "mu simd+Tz+stag 40^3 t1",
///           "mlups": 3.2156789012345678,
///           "bytes_per_cell": 680
///         }
///       ]
///     }
///
/// Doubles are printed with %.17g (exact IEEE-754 round-trip — the same
/// contract as io/csv_writer.h), keys are emitted in a fixed order, and
/// entries keep their insertion order, so re-serializing a parsed document
/// reproduces it byte for byte. `bytes_per_cell` is 0 when the producing
/// bench has no per-cell traffic model (e.g. whole-step timings).
///
/// Multiple binaries share one file: each re-reads the document and upserts
/// its own (bench, variant) rows, leaving the others in place.
///
/// The parser accepts exactly this schema (a deliberate subset of JSON) and
/// reports failures as BenchJsonError with line/column-pointed messages, in
/// the style of io/csv_writer.h's CsvError.

#include <stdexcept>
#include <string>
#include <vector>

namespace tpf::perf {

/// Raised on malformed documents, schema mismatches and file I/O failure.
class BenchJsonError : public std::runtime_error {
public:
    explicit BenchJsonError(const std::string& what)
        : std::runtime_error(what) {}
};

inline constexpr const char* kBenchSchema = "tpf-bench v1";

struct BenchEntry {
    std::string bench;   ///< producing binary, e.g. "bench_roofline"
    std::string variant; ///< measurement label, e.g. "mu simd 40^3 t1"
    double mlups = 0.0;
    double bytesPerCell = 0.0; ///< 0 = no traffic model for this entry
};

struct BenchDoc {
    std::string machine; ///< machineFingerprint() of the producing host
    std::vector<BenchEntry> entries;
};

/// Serialize (deterministic: fixed key order, %.17g numbers).
std::string writeBenchJson(const BenchDoc& doc);
/// Parse; throws BenchJsonError with a line/column-pointed message.
BenchDoc parseBenchJson(const std::string& text);

/// File variants. readBenchJsonFile throws on a missing file;
/// writeBenchJsonFile truncates.
BenchDoc readBenchJsonFile(const std::string& path);
void writeBenchJsonFile(const std::string& path, const BenchDoc& doc);

/// Replace rows of \p doc matching an incoming (bench, variant) in place;
/// append the rest. The per-binary merge step for a shared BENCH file.
void upsertBenchEntries(BenchDoc& doc, const std::vector<BenchEntry>& add);

/// Read-modify-write convenience used by the `--json <path>` bench flags: a
/// missing file starts a fresh document stamped with machineFingerprint().
void upsertBenchFile(const std::string& path,
                     const std::vector<BenchEntry>& add);

struct BenchDiff {
    bool ok = true;
    std::string message; ///< first violation, or "ok"
};

/// Trajectory gate: every entry of \p baseline that reappears in
/// \p candidate (same bench and variant) must not have regressed by more
/// than \p relTol (fraction, e.g. 0.5 = half the baseline throughput).
/// Entries missing from \p candidate are reported; new entries are fine.
/// Documents from different machines compare trivially ok — a throughput
/// trajectory only means something on the hardware that produced it.
BenchDiff diffBench(const BenchDoc& baseline, const BenchDoc& candidate,
                    double relTol);

/// Stable description of the executing host: ISA dispatch level (the same
/// cpuid checks as core/kernel_dispatch.cpp) plus the hardware thread count.
/// Deliberately free of hostnames, clocks and serial numbers.
std::string machineFingerprint();

} // namespace tpf::perf
