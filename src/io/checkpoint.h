#pragma once
/// \file checkpoint.h
/// Versioned, checksummed, exact-restart checkpointing (paper §3.2).
///
/// The paper stores "the complete simulation state … containing four phi
/// values and two mu values per cell" and uses single precision "to save disk
/// space and I/O bandwidth". This repo's format keeps that option but
/// defaults to full double precision, because the restart contract here is
/// stronger than the paper needed to state: running 2N steps must produce a
/// checkpoint *bitwise identical* to running N steps, restarting from the
/// checkpoint, and running N more — for any ranks × threads combination,
/// moving window included. That contract is what `tests/test_restart.cpp`
/// and the golden-run suite (`tests/test_golden.cpp`) enforce.
///
/// ## On-disk layout (format version 2)
///
/// One file per rank, `rank_<r>.tpfchk`, entirely self-describing:
///
///     FileHeader                     magic "TPFCHK02", header size, format
///                                    version, value precision (4|8 bytes),
///                                    step count, simulated time, moving-
///                                    window offset, global cells, block
///                                    size (of the block grid), rank /
///                                    rank count, block count
///     repeat numBlocks times:
///       BlockHeader                  block index, interior size, origin
///       FieldHeader "phi" + payload  nf components, CRC-32, payload bytes
///       FieldHeader "mu"  + payload  interior cells only, forEachCell order
///                                    (z, y, x outer→inner, component
///                                    innermost); ghosts are reconstructed by
///                                    communication on restore
///
/// All integers are fixed-width little-endian; the headers are trivially
/// copyable structs with no implicit padding (static_asserted in the .cpp).
///
/// ## Atomicity
///
/// `saveCheckpoint(dir, …)` never exposes a half-written state: every rank
/// writes into the staging directory `<dir>.tmp`, and only after *all* ranks
/// report success does rank 0 publish it — an existing `<dir>` is first
/// moved aside to `<dir>.old` (rename, not delete), then the staging
/// directory is renamed to `<dir>` and `<dir>.old` removed. At every kill
/// point the last complete checkpoint survives under `<dir>` or `<dir>.old`,
/// and neither name ever holds a partial write; stale `.tmp`/`.old` debris
/// is cleaned up by the next save.
///
/// ## Error handling
///
/// I/O and validation failures throw CheckpointError instead of aborting.
/// In multi-rank runs every rank first finishes its *local* read/validation
/// (including the per-field CRC check), then the ranks agree on the outcome
/// with an all-reduce; only then do they throw collectively. A missing or
/// truncated per-rank file therefore aborts *all* ranks with a clear message
/// instead of leaving the healthy ranks hanging in the restore's collective
/// ghost exchange.

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/solver.h"

namespace tpf::io {

/// Current on-disk format version (the "02" in the magic tracks it).
inline constexpr int kCheckpointFormatVersion = 2;

/// Raised by every checkpoint routine on I/O or validation failure. In
/// multi-rank runs the throw is collective (all ranks throw after agreeing
/// on the failure), so vmpi::runParallel rethrows it on the calling thread.
class CheckpointError : public std::runtime_error {
public:
    explicit CheckpointError(const std::string& what)
        : std::runtime_error(what) {}
};

/// Stored value precision. Float64 is the default: it is what makes restart
/// *exact*. Float32 halves the file size (the paper's production choice) at
/// the cost of a ~1e-7 relative perturbation on restart.
enum class CheckpointPrecision { Float64, Float32 };

struct CheckpointOptions {
    CheckpointPrecision precision = CheckpointPrecision::Float64;
};

/// Metadata of a checkpoint directory (the rank-0 file header, plus the
/// block headers of every rank file).
struct CheckpointMeta {
    int formatVersion = kCheckpointFormatVersion;
    int precisionBytes = 8; ///< 8 = Float64 (exact restart), 4 = Float32
    long long step = 0;     ///< completed time steps
    double time = 0.0;
    double windowOffset = 0.0;
    Int3 globalCells{};
    /// Block size of the block grid; a z-slab checkpoint whose per-rank
    /// heights differ records the uniform split's block here.
    Int3 blockCells{};
    int numRanks = 1;
    /// z-extent [begin, end) of each rank's blocks, rank 0 first.
    std::vector<std::array<int, 2>> rankZ;
};

/// Write the state of \p solver under directory \p dir (created if needed)
/// via the staging-directory protocol above. Collective: every rank writes
/// its own file and participates in the success agreement.
void saveCheckpoint(const std::string& dir, core::Solver& solver,
                    const CheckpointOptions& opts = {});

/// Restore a previously saved state into \p solver (must be configured with
/// the same domain and decomposition). A z-slab solver (one block per rank,
/// spanning x/y) adopts the per-rank heights the files' block headers
/// record, re-laying itself when they differ from its own
/// (Solver::relayoutZSlabs); heights that do not tile its domain on its
/// ranks are an error that names both layouts. The rank file is fully read
/// and validated — header, geometry, per-field CRC — *before* any solver
/// state is touched; fields, simulated time, moving-window offset and the
/// timeloop step counter are then restored and ghost layers
/// re-synchronized. Collective; throws CheckpointError on all ranks if any
/// rank fails.
void loadCheckpoint(const std::string& dir, core::Solver& solver);

/// Read only the metadata (headers, no payloads). Throws CheckpointError.
CheckpointMeta readCheckpointMeta(const std::string& dir);

/// First point of divergence between two checkpoints, for the golden-run
/// regression harness and `tpf-chk diff`.
struct CheckpointDiff {
    bool identical = false;
    /// Non-empty: the comparison could not proceed value-by-value (missing
    /// file, header/geometry mismatch, CRC failure) — the description says
    /// which file/field.
    std::string structural;
    // First divergent value (valid when !identical && structural.empty()):
    int rank = -1;
    int blockIdx = -1;
    std::string field;       ///< "phi" or "mu"
    int component = -1;
    Int3 cell{};             ///< global cell coordinates
    double valueA = 0.0, valueB = 0.0;
    // Aggregates over all compared values:
    long long differingValues = 0;
    double maxAbsDiff = 0.0;
    /// One-line human-readable report ("identical", the structural error, or
    /// field/cell/values of the first divergence plus the aggregates).
    std::string message() const;
};

/// Field-by-field, value-by-value comparison of two checkpoint directories
/// (all ranks; both must have the same rank count). Verifies the stored CRCs
/// of both sides first so a corrupted reference is reported as such rather
/// than as a numeric difference. Does not throw on mismatch — inspect the
/// returned report.
CheckpointDiff compareCheckpoints(const std::string& dirA,
                                  const std::string& dirB);

/// Bytes a checkpoint of this solver occupies at the given precision.
std::size_t checkpointBytes(const core::Solver& solver,
                            CheckpointPrecision precision =
                                CheckpointPrecision::Float64);

} // namespace tpf::io
