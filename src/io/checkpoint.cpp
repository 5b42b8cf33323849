#include "io/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <type_traits>

#include "util/crc32.h"

namespace tpf::io {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// On-disk structures (format version 2). Fixed-width members, explicitly
// padded so the structs have no implicit holes and the layout is stable.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'T', 'P', 'F', 'C', 'H', 'K', '0', '2'};
constexpr char kMagicPrefix[6] = {'T', 'P', 'F', 'C', 'H', 'K'};

struct FileHeader {
    char magic[8];
    std::uint32_t headerBytes;
    std::uint32_t formatVersion;
    std::uint32_t valueBytes;     ///< 8 (Float64, exact restart) or 4 (Float32)
    std::uint32_t fieldsPerBlock; ///< 2: phi, mu
    std::int64_t step;
    double time;
    double windowOffset;
    std::int32_t globalX, globalY, globalZ;
    std::int32_t blockX, blockY, blockZ;
    std::int32_t numRanks, rank, numBlocks, reserved;
};
static_assert(sizeof(FileHeader) == 88 && std::is_trivially_copyable_v<FileHeader>);

struct BlockHeader {
    std::int32_t blockIdx;
    std::int32_t nx, ny, nz;
    std::int32_t originX, originY, originZ;
    std::int32_t reserved;
};
static_assert(sizeof(BlockHeader) == 32 && std::is_trivially_copyable_v<BlockHeader>);

struct FieldHeader {
    char name[8]; ///< NUL-padded field name ("phi", "mu")
    std::uint32_t components;
    std::uint32_t valueBytes;
    std::uint64_t payloadBytes;
    std::uint32_t crc;
    std::uint32_t reserved;
};
static_assert(sizeof(FieldHeader) == 32 && std::is_trivially_copyable_v<FieldHeader>);

std::string rankFile(const std::string& dir, int rank) {
    return dir + "/rank_" + std::to_string(rank) + ".tpfchk";
}

/// Strip trailing slashes so "<dir>.tmp" is a sibling, not a child.
std::string normalizeDir(std::string dir) {
    while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
    return dir;
}

std::string stagingDir(const std::string& dir) { return dir + ".tmp"; }

struct FileCloser {
    void operator()(std::FILE* f) const {
        if (f) std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// ---------------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------------

int valueBytes(CheckpointPrecision p) {
    return p == CheckpointPrecision::Float64 ? 8 : 4;
}

/// Cells \p ci of \p field serialized into \p buf in forEachCell order
/// (z, y, x outer→inner) with the component index innermost, at \p prec
/// precision.
void serializeCells(const Field<double>& field, const CellInterval& ci,
                    CheckpointPrecision prec, std::vector<unsigned char>& buf) {
    const std::size_t values = static_cast<std::size_t>(ci.numCells()) *
                               static_cast<std::size_t>(field.nf());
    buf.resize(values * static_cast<std::size_t>(valueBytes(prec)));
    std::size_t i = 0;
    if (prec == CheckpointPrecision::Float64) {
        auto* out = reinterpret_cast<double*>(buf.data());
        forEachCell(ci, [&](int x, int y, int z) {
            for (int c = 0; c < field.nf(); ++c) out[i++] = field(x, y, z, c);
        });
    } else {
        auto* out = reinterpret_cast<float*>(buf.data());
        forEachCell(ci, [&](int x, int y, int z) {
            for (int c = 0; c < field.nf(); ++c)
                out[i++] = static_cast<float>(field(x, y, z, c));
        });
    }
}

/// Field header and payload of \p field, streamed one z-plane at a time so
/// that no buffer of the whole field is held: the header goes out with a
/// zero CRC and is rewritten once the payload's CRC is known.
bool writeField(std::FILE* f, const char* name, const Field<double>& field,
                CheckpointPrecision prec) {
    const CellInterval in = field.interior();
    FieldHeader fh{};
    std::snprintf(fh.name, sizeof(fh.name), "%s", name);
    fh.components = static_cast<std::uint32_t>(field.nf());
    fh.valueBytes = static_cast<std::uint32_t>(valueBytes(prec));
    fh.payloadBytes = static_cast<std::uint64_t>(in.numCells()) *
                      fh.components * fh.valueBytes;
    const long at = std::ftell(f);
    if (at < 0 || std::fwrite(&fh, sizeof(fh), 1, f) != 1) return false;
    std::vector<unsigned char> plane;
    for (int z = in.zMin; z <= in.zMax; ++z) {
        serializeCells(field, {in.xMin, in.yMin, z, in.xMax, in.yMax, z},
                       prec, plane);
        fh.crc = util::crc32(plane.data(), plane.size(), fh.crc);
        if (std::fwrite(plane.data(), 1, plane.size(), f) != plane.size())
            return false;
    }
    return std::fseek(f, at, SEEK_SET) == 0 &&
           std::fwrite(&fh, sizeof(fh), 1, f) == 1 &&
           std::fseek(f, 0, SEEK_END) == 0;
}

void deserializeField(const std::vector<unsigned char>& buf, int prec,
                      Field<double>& field) {
    std::size_t i = 0;
    if (prec == 8) {
        const auto* in = reinterpret_cast<const double*>(buf.data());
        forEachCell(field.interior(), [&](int x, int y, int z) {
            for (int c = 0; c < field.nf(); ++c) field(x, y, z, c) = in[i++];
        });
    } else {
        const auto* in = reinterpret_cast<const float*>(buf.data());
        forEachCell(field.interior(), [&](int x, int y, int z) {
            for (int c = 0; c < field.nf(); ++c)
                field(x, y, z, c) = static_cast<double>(in[i++]);
        });
    }
}

// ---------------------------------------------------------------------------
// Parsed in-memory representation, shared by load / meta / compare
// ---------------------------------------------------------------------------

struct ParsedField {
    FieldHeader fh{};
    std::string name;
    std::vector<unsigned char> payload;
    /// Decoded value at flat index \p i (component-innermost order).
    double value(std::size_t i) const {
        if (fh.valueBytes == 8) {
            double v;
            std::memcpy(&v, payload.data() + i * 8, 8);
            return v;
        }
        float v;
        std::memcpy(&v, payload.data() + i * 4, 4);
        return static_cast<double>(v);
    }
};

struct ParsedBlock {
    BlockHeader bh{};
    std::vector<ParsedField> fields;
};

struct ParsedRank {
    FileHeader fh{};
    std::vector<ParsedBlock> blocks;
};

bool fail(std::string& err, std::string msg) {
    err = std::move(msg);
    return false;
}

enum class ReadMode {
    HeaderOnly, ///< parse and validate the FileHeader, skip the blocks
    Layout,     ///< parse every header, skip the payloads
    Full,       ///< parse everything, trust the stored CRCs
    FullVerify  ///< parse everything and verify every field CRC
};

/// Read and validate one rank file into \p out: header sanity, block and
/// field structure, payload sizes and (per \p mode) the per-field CRCs.
/// Purely local — no collectives, no solver state touched. On failure the
/// message in \p err names the file and, where applicable, the field.
bool readRankFile(const std::string& path, ParsedRank& out, ReadMode mode,
                  std::string& err) {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail(err, "cannot open checkpoint file '" + path + "'");

    FileHeader& hdr = out.fh;
    if (std::fread(&hdr, sizeof(hdr), 1, f.get()) != 1)
        return fail(err, "truncated checkpoint file '" + path +
                             "' (file header)");
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) {
        if (std::memcmp(hdr.magic, kMagicPrefix, sizeof(kMagicPrefix)) == 0)
            return fail(err, "unsupported checkpoint format version in '" +
                                 path + "' (magic " +
                                 std::string(hdr.magic, 8) + ", this build "
                                 "reads TPFCHK02)");
        return fail(err, "'" + path + "' is not a TPF checkpoint file");
    }
    if (hdr.headerBytes != sizeof(FileHeader) ||
        hdr.formatVersion !=
            static_cast<std::uint32_t>(kCheckpointFormatVersion))
        return fail(err, "checkpoint format version mismatch in '" + path +
                             "' (file version " +
                             std::to_string(hdr.formatVersion) + ", expected " +
                             std::to_string(kCheckpointFormatVersion) + ")");
    if (hdr.valueBytes != 4 && hdr.valueBytes != 8)
        return fail(err, "invalid value precision in '" + path + "'");
    // The header is not CRC-protected, so every consumer of these fields
    // (including compareCheckpoints' rank loop) depends on the sanity
    // bounds here — e.g. a zeroed numRanks must not shrink a diff to an
    // empty comparison that reports "identical".
    if (hdr.fieldsPerBlock != 2 || hdr.numBlocks < 0 ||
        hdr.numBlocks > 1000000 || hdr.globalX <= 0 || hdr.globalY <= 0 ||
        hdr.globalZ <= 0 || hdr.numRanks <= 0 || hdr.numRanks > 1000000 ||
        hdr.rank < 0 || hdr.rank >= hdr.numRanks)
        return fail(err, "corrupt checkpoint header in '" + path + "'");
    if (mode == ReadMode::HeaderOnly) return true;

    out.blocks.resize(static_cast<std::size_t>(hdr.numBlocks));
    for (auto& blk : out.blocks) {
        BlockHeader& bh = blk.bh;
        if (std::fread(&bh, sizeof(bh), 1, f.get()) != 1)
            return fail(err, "truncated checkpoint file '" + path +
                                 "' (block header)");
        // Bound the dimensions so a corrupted-but-self-consistent header
        // cannot drive payload allocations into the terabytes.
        constexpr std::int32_t kMaxDim = 1 << 20;
        if (bh.nx <= 0 || bh.ny <= 0 || bh.nz <= 0 || bh.nx > kMaxDim ||
            bh.ny > kMaxDim || bh.nz > kMaxDim)
            return fail(err, "corrupt block header in '" + path + "'");
        const std::uint64_t cells = static_cast<std::uint64_t>(bh.nx) *
                                    static_cast<std::uint64_t>(bh.ny) *
                                    static_cast<std::uint64_t>(bh.nz);
        blk.fields.resize(hdr.fieldsPerBlock);
        for (auto& fld : blk.fields) {
            FieldHeader& fh = fld.fh;
            if (std::fread(&fh, sizeof(fh), 1, f.get()) != 1)
                return fail(err, "truncated checkpoint file '" + path +
                                     "' (field header)");
            fld.name.assign(fh.name,
                            strnlen(fh.name, sizeof(fh.name)));
            const std::string where =
                "field '" + fld.name + "' of block " +
                std::to_string(bh.blockIdx) + " in '" + path + "'";
            if (fh.components == 0 || fh.components > 64 ||
                fh.valueBytes != hdr.valueBytes)
                return fail(err, "corrupt field header for " + where);
            if (fh.payloadBytes != cells * fh.components * fh.valueBytes ||
                fh.payloadBytes > (1ULL << 40))
                return fail(err, "payload size mismatch for " + where);
            if (mode == ReadMode::Layout) {
                if (std::fseek(f.get(), static_cast<long>(fh.payloadBytes),
                               SEEK_CUR) != 0)
                    return fail(err, "truncated checkpoint file: " + where);
                continue;
            }
            fld.payload.resize(fh.payloadBytes);
            if (std::fread(fld.payload.data(), 1, fld.payload.size(),
                           f.get()) != fld.payload.size())
                return fail(err,
                            "truncated checkpoint file: " + where);
            if (mode == ReadMode::FullVerify) {
                const std::uint32_t crc =
                    util::crc32(fld.payload.data(), fld.payload.size());
                if (crc != fh.crc) {
                    char buf[64];
                    std::snprintf(buf, sizeof buf,
                                  " (stored 0x%08X, computed 0x%08X)", fh.crc,
                                  crc);
                    return fail(err,
                                "checksum mismatch for " + where + buf);
                }
            }
        }
    }
    // Trailing garbage would mean the writer and reader disagree on layout.
    if (mode != ReadMode::Layout && std::fgetc(f.get()) != EOF)
        return fail(err, "trailing data after last field in '" + path + "'");
    return true;
}

/// Block size of the forest's block grid: the block size of a uniform
/// forest, and the uniform split's block of a z-slab forest whose heights
/// differ (the block headers carry every block's own extent).
Int3 gridBlockCells(const BlockForest& bf) {
    const Int3 g = bf.globalCells();
    const Int3 n = bf.blockGrid();
    return {g.x / n.x, g.y / n.y, g.z / n.z};
}

/// Check that a parsed rank file header matches the running solver's domain,
/// block grid and rank layout. Local, no solver mutation.
bool validateHeader(const FileHeader& hdr, const BlockForest& bf, int rank,
                    int nranks, std::string& err) {
    const Int3 g = bf.globalCells();
    if (hdr.globalX != g.x || hdr.globalY != g.y || hdr.globalZ != g.z) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "checkpoint domain size mismatch (file %dx%dx%d, "
                      "solver %dx%dx%d)",
                      hdr.globalX, hdr.globalY, hdr.globalZ, g.x, g.y, g.z);
        return fail(err, buf);
    }
    const Int3 bs = gridBlockCells(bf);
    if (hdr.blockX != bs.x || hdr.blockY != bs.y || hdr.blockZ != bs.z)
        return fail(err, "checkpoint block size mismatch (same decomposition "
                         "required)");
    if (hdr.numRanks != nranks || hdr.rank != rank) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "checkpoint rank layout mismatch (file: rank %d of %d, "
                      "running: rank %d of %d)",
                      hdr.rank, hdr.numRanks, rank, nranks);
        return fail(err, buf);
    }
    return true;
}

/// Check that the blocks of a parsed rank file are the blocks \p bf gives
/// \p rank, in order and geometry, with the expected fields.
bool validateBlocks(const ParsedRank& pr, const BlockForest& bf, int rank,
                    std::string& err) {
    const std::vector<int> blocks = bf.localBlocks(rank);
    if (pr.fh.numBlocks != static_cast<int>(blocks.size()))
        return fail(err, "checkpoint block count mismatch (same decomposition "
                         "required)");
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const Int3 o = bf.blockOrigin(blocks[i]);
        const Int3 n = bf.blockCells(blocks[i]);
        const BlockHeader& bh = pr.blocks[i].bh;
        if (bh.blockIdx != blocks[i])
            return fail(err, "checkpoint block order mismatch");
        if (bh.nx != n.x || bh.ny != n.y || bh.nz != n.z ||
            bh.originX != o.x || bh.originY != o.y || bh.originZ != o.z)
            return fail(err, "checkpoint block geometry mismatch");
        const ParsedField& phi = pr.blocks[i].fields[0];
        const ParsedField& mu = pr.blocks[i].fields[1];
        if (phi.name != "phi" ||
            phi.fh.components != static_cast<std::uint32_t>(core::N))
            return fail(err, "unexpected first field (want 'phi' with " +
                                 std::to_string(core::N) + " components)");
        if (mu.name != "mu" ||
            mu.fh.components != static_cast<std::uint32_t>(core::KC))
            return fail(err, "unexpected second field (want 'mu' with " +
                                 std::to_string(core::KC) + " components)");
    }
    return true;
}

/// z-extent [lowest origin, highest top) of the blocks of every rank file
/// of \p dir, from the headers alone. \p nranks < 0 takes the rank count
/// from the rank-0 file.
bool readRankZ(const std::string& dir, int nranks,
               std::vector<std::array<int, 2>>& out, std::string& err) {
    out.clear();
    for (int r = 0; r < std::max(nranks, 1); ++r) {
        ParsedRank pr;
        if (!readRankFile(rankFile(dir, r), pr, ReadMode::Layout, err))
            return false;
        if (nranks < 0) nranks = pr.fh.numRanks;
        if (pr.fh.numRanks != nranks || pr.fh.rank != r)
            return fail(err, "rank file '" + rankFile(dir, r) + "' holds "
                             "rank " + std::to_string(pr.fh.rank) + " of " +
                             std::to_string(pr.fh.numRanks));
        std::array<int, 2> z{0, 0};
        for (std::size_t b = 0; b < pr.blocks.size(); ++b) {
            const BlockHeader& bh = pr.blocks[b].bh;
            z[0] = b == 0 ? bh.originZ : std::min(z[0], bh.originZ);
            z[1] = b == 0 ? bh.originZ + bh.nz
                          : std::max(z[1], bh.originZ + bh.nz);
        }
        out.push_back(z);
    }
    return true;
}

std::string formatRankZ(const std::vector<std::array<int, 2>>& z) {
    std::string s;
    for (const auto& e : z)
        s += (s.empty() ? "[" : " [") + std::to_string(e[0]) + "," +
             std::to_string(e[1]) + ")";
    return s;
}

/// Per-rank heights of the z-slab checkpoint in \p dir, which must tile the
/// z extent of \p bf (a z-slab forest) on its ranks: rank 0 from z = 0, each
/// rank where the one below ends, the last at NZ. Otherwise fails with a
/// message that names both layouts.
bool readZSlabHeights(const std::string& dir, const BlockForest& bf,
                      std::vector<int>& heights, std::string& err) {
    std::vector<std::array<int, 2>> z;
    if (!readRankZ(dir, bf.numRanks(), z, err)) return false;
    heights.clear();
    int top = 0;
    for (const auto& e : z) {
        if (e[0] != top || e[1] <= e[0]) break;
        heights.push_back(e[1] - e[0]);
        top = e[1];
    }
    if (top == bf.globalCells().z && heights.size() == z.size()) return true;

    std::vector<std::array<int, 2>> mine;
    top = 0;
    for (int h : bf.layerHeights()) {
        mine.push_back({top, top + h});
        top += h;
    }
    const Int3 g = bf.globalCells();
    return fail(err, "checkpoint '" + dir + "' has per-rank z-extents " +
                         formatRankZ(z) + ", which do not tile the solver's " +
                         std::to_string(g.x) + "x" + std::to_string(g.y) +
                         "x" + std::to_string(g.z) + " domain on " +
                         std::to_string(bf.numRanks()) +
                         " z-slab ranks (solver z-extents " +
                         formatRankZ(mine) + ")");
}

// ---------------------------------------------------------------------------
// Collective failure agreement: every rank finishes its local work first,
// then all ranks learn whether anyone failed, and only then is the error
// raised — on all ranks — so nobody hangs in a later collective.
// ---------------------------------------------------------------------------

bool agree(vmpi::Comm* comm, bool localOk) {
    if (!comm || comm->size() == 1) return localOk;
    return comm->allAgree(localOk);
}

[[noreturn]] void throwCollective(const std::string& localErr,
                                  const char* what) {
    if (!localErr.empty()) throw CheckpointError(localErr);
    throw CheckpointError(std::string(what) +
                          " failed on another rank (see its message)");
}

/// Write one rank's file into the staging directory. Local; returns false
/// with a message in \p err on any I/O failure.
bool writeRankFile(const std::string& path, core::Solver& solver, int rank,
                   int nranks, CheckpointPrecision prec, std::string& err) {
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return fail(err,
                    "cannot open checkpoint file '" + path + "' for writing");

    FileHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.headerBytes = sizeof(FileHeader);
    hdr.formatVersion = static_cast<std::uint32_t>(kCheckpointFormatVersion);
    hdr.valueBytes = static_cast<std::uint32_t>(valueBytes(prec));
    hdr.fieldsPerBlock = 2;
    hdr.step = solver.stepsDone();
    hdr.time = solver.time();
    hdr.windowOffset = solver.windowOffsetCells();
    hdr.globalX = solver.forest().globalCells().x;
    hdr.globalY = solver.forest().globalCells().y;
    hdr.globalZ = solver.forest().globalCells().z;
    const Int3 bs = gridBlockCells(solver.forest());
    hdr.blockX = bs.x;
    hdr.blockY = bs.y;
    hdr.blockZ = bs.z;
    hdr.numRanks = nranks;
    hdr.rank = rank;
    hdr.numBlocks = static_cast<int>(solver.localBlocks().size());
    if (std::fwrite(&hdr, sizeof(hdr), 1, f.get()) != 1)
        return fail(err, "write failed for '" + path + "' (file header)");

    for (auto& b : solver.localBlocks()) {
        BlockHeader bh{};
        bh.blockIdx = b->blockIdx;
        bh.nx = b->size.x;
        bh.ny = b->size.y;
        bh.nz = b->size.z;
        bh.originX = b->origin.x;
        bh.originY = b->origin.y;
        bh.originZ = b->origin.z;
        if (std::fwrite(&bh, sizeof(bh), 1, f.get()) != 1)
            return fail(err, "write failed for '" + path + "' (block header)");

        const struct {
            const char* name;
            const Field<double>* field;
        } fields[2] = {{"phi", &b->phiSrc}, {"mu", &b->muSrc}};
        for (const auto& [name, field] : fields)
            if (!writeField(f.get(), name, *field, prec))
                return fail(err, "write failed for '" + path + "' (field '" +
                                     name + "')");
    }
    if (std::fflush(f.get()) != 0)
        return fail(err, "flush failed for '" + path + "'");
    return true;
}

CheckpointMeta metaFromHeader(const FileHeader& hdr) {
    CheckpointMeta m;
    m.formatVersion = static_cast<int>(hdr.formatVersion);
    m.precisionBytes = static_cast<int>(hdr.valueBytes);
    m.step = hdr.step;
    m.time = hdr.time;
    m.windowOffset = hdr.windowOffset;
    m.globalCells = {hdr.globalX, hdr.globalY, hdr.globalZ};
    m.blockCells = {hdr.blockX, hdr.blockY, hdr.blockZ};
    m.numRanks = hdr.numRanks;
    return m;
}

} // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void saveCheckpoint(const std::string& dirIn, core::Solver& solver,
                    const CheckpointOptions& opts) {
    const std::string dir = normalizeDir(dirIn);
    const std::string staging = stagingDir(dir);
    vmpi::Comm* comm = solver.comm();
    const int rank = comm ? comm->rank() : 0;
    const int nranks = comm ? comm->size() : 1;

    std::string err;
    bool ok = true;

    // Rank 0 prepares a clean staging directory; everyone waits for it.
    if (rank == 0) {
        std::error_code ec;
        fs::remove_all(staging, ec); // stale leftover of a killed save
        fs::create_directories(staging, ec);
        if (ec)
            ok = fail(err, "cannot create checkpoint staging directory '" +
                               staging + "': " + ec.message());
    }
    if (comm && comm->size() > 1) comm->barrier();

    if (ok) {
        // Contain any local exception (e.g. bad_alloc from the serialize
        // buffer): the agreement below must be reached by every rank, or the
        // others hang in it.
        try {
            ok = writeRankFile(rankFile(staging, rank), solver, rank, nranks,
                               opts.precision, err);
        } catch (const std::exception& e) {
            ok = fail(err, std::string("checkpoint write failed: ") +
                               e.what());
        }
    }

    // All files complete (the agreement doubles as the barrier) — or abort
    // everywhere, leaving any previous checkpoint under `dir` untouched.
    if (!agree(comm, ok)) {
        if (rank == 0) {
            std::error_code ec;
            fs::remove_all(staging, ec);
        }
        throwCollective(err, "checkpoint save");
    }

    // Publish atomically. An existing checkpoint is moved aside (rename,
    // not delete) before the new one takes its name, so the last complete
    // state survives every kill point: before the renames it is at `dir`,
    // between them at `dir.old` (recover by renaming back), after them the
    // new checkpoint is at `dir`. Neither name ever holds a partial write.
    if (rank == 0) {
        const std::string old = dir + ".old";
        std::error_code ec;
        fs::remove_all(old, ec); // stale leftover of a killed publish
        ec.clear();
        if (fs::exists(dir)) fs::rename(dir, old, ec);
        if (!ec) fs::rename(staging, dir, ec);
        if (ec)
            ok = fail(err, "cannot publish checkpoint '" + staging + "' -> '" +
                               dir + "': " + ec.message());
        else
            fs::remove_all(old, ec);
    }
    if (!agree(comm, ok)) throwCollective(err, "checkpoint save");
}

void loadCheckpoint(const std::string& dirIn, core::Solver& solver) {
    const std::string dir = normalizeDir(dirIn);
    vmpi::Comm* comm = solver.comm();
    const int rank = comm ? comm->rank() : 0;
    const int nranks = comm ? comm->size() : 1;

    // Phase 1 (local, no collectives, no solver mutation): read the whole
    // rank file into memory and validate structure, geometry and checksums.
    // A z-slab solver adopts the per-rank heights of the files, which every
    // rank reads from all the block headers alike. Exceptions are contained
    // here too — every rank must reach the agreement below, or the others
    // hang in it.
    ParsedRank pr;
    std::string err;
    bool ok = false;
    const BlockForest& bf = solver.forest();
    std::vector<int> heights = bf.layerHeights();
    try {
        ok = readRankFile(rankFile(dir, rank), pr, ReadMode::FullVerify,
                          err) &&
             validateHeader(pr.fh, bf, rank, nranks, err) &&
             (!bf.isZSlabs() || readZSlabHeights(dir, bf, heights, err)) &&
             validateBlocks(pr,
                            bf.isZSlabs()
                                ? BlockForest::createZSlabs(
                                      bf.globalCells(), bf.periodic(), heights)
                                : bf,
                            rank, err);
    } catch (const std::exception& e) {
        ok = fail(err, std::string("checkpoint read failed: ") + e.what());
    }

    // Phase 2 (collective): agree on the outcome. A rank with a missing or
    // truncated file aborts *all* ranks here, before anyone enters the
    // restore's ghost exchange — a local abort would leave the healthy ranks
    // hanging in that collective.
    if (!agree(comm, ok)) throwCollective(err, "checkpoint load");

    // Phase 3: apply. Only reached when every rank validated successfully.
    if (bf.isZSlabs()) solver.relayoutZSlabs(heights);
    auto& blocks = solver.localBlocks();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        core::SimBlock& b = *blocks[i];
        deserializeField(pr.blocks[i].fields[0].payload,
                         static_cast<int>(pr.fh.valueBytes), b.phiSrc);
        deserializeField(pr.blocks[i].fields[1].payload,
                         static_cast<int>(pr.fh.valueBytes), b.muSrc);
        b.phiDst.copyFrom(b.phiSrc);
        b.muDst.copyFrom(b.muSrc);
    }
    solver.restore(pr.fh.time, pr.fh.windowOffset, pr.fh.step);
}

CheckpointMeta readCheckpointMeta(const std::string& dirIn) {
    const std::string dir = normalizeDir(dirIn);
    ParsedRank pr;
    std::string err;
    // Headers only: the payloads (potentially GBs for production runs) are
    // neither read nor allocated just to report metadata.
    if (!readRankFile(rankFile(dir, 0), pr, ReadMode::HeaderOnly, err))
        throw CheckpointError(err);
    CheckpointMeta m = metaFromHeader(pr.fh);
    if (!readRankZ(dir, -1, m.rankZ, err)) throw CheckpointError(err);
    return m;
}

std::string CheckpointDiff::message() const {
    if (identical) return "checkpoints identical";
    if (!structural.empty()) return structural;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "first divergence: field '%s'[%d] at global cell "
                  "(%d, %d, %d), block %d, rank %d: %.17g vs %.17g "
                  "(%lld differing values, max |diff| %.3g)",
                  field.c_str(), component, cell.x, cell.y, cell.z, blockIdx,
                  rank, valueA, valueB, differingValues, maxAbsDiff);
    return buf;
}

CheckpointDiff compareCheckpoints(const std::string& dirAIn,
                                  const std::string& dirBIn) {
    const std::string dirA = normalizeDir(dirAIn);
    const std::string dirB = normalizeDir(dirBIn);
    CheckpointDiff d;

    // Cheap header peek for the rank count; the per-rank loop below does the
    // single full (CRC-verified) read of each file.
    ParsedRank a0;
    std::string err;
    if (!readRankFile(rankFile(dirA, 0), a0, ReadMode::HeaderOnly, err)) {
        d.structural = err;
        return d;
    }
    const int nranks = a0.fh.numRanks;

    bool first = true;
    for (int r = 0; r < nranks; ++r) {
        ParsedRank a, b;
        bool ok = false;
        try {
            ok = readRankFile(rankFile(dirA, r), a, ReadMode::FullVerify,
                              err) &&
                 readRankFile(rankFile(dirB, r), b, ReadMode::FullVerify,
                              err);
        } catch (const std::exception& e) {
            err = std::string("checkpoint read failed: ") + e.what();
        }
        if (!ok) {
            d.structural = err;
            return d;
        }
        const FileHeader& ha = a.fh;
        const FileHeader& hb = b.fh;
        char buf[192];
        if (hb.numRanks != nranks) {
            std::snprintf(buf, sizeof buf,
                          "rank count differs (%d vs %d)", nranks,
                          hb.numRanks);
            d.structural = buf;
            return d;
        }
        if (ha.globalX != hb.globalX || ha.globalY != hb.globalY ||
            ha.globalZ != hb.globalZ || ha.blockX != hb.blockX ||
            ha.blockY != hb.blockY || ha.blockZ != hb.blockZ ||
            ha.numBlocks != hb.numBlocks) {
            d.structural = "domain/decomposition differs between the "
                           "checkpoints";
            return d;
        }
        if (ha.valueBytes != hb.valueBytes) {
            std::snprintf(buf, sizeof buf,
                          "stored precision differs (%u vs %u bytes per "
                          "value)",
                          ha.valueBytes, hb.valueBytes);
            d.structural = buf;
            return d;
        }
        if (ha.step != hb.step || ha.time != hb.time ||
            ha.windowOffset != hb.windowOffset) {
            std::snprintf(buf, sizeof buf,
                          "run clocks differ: step %" PRId64 " vs %" PRId64
                          ", t %.17g vs %.17g, window offset %.17g vs %.17g",
                          ha.step, hb.step, ha.time, hb.time, ha.windowOffset,
                          hb.windowOffset);
            d.structural = buf;
            return d;
        }
        for (std::size_t bi = 0; bi < a.blocks.size(); ++bi) {
            const ParsedBlock& ba = a.blocks[bi];
            const ParsedBlock& bb = b.blocks[bi];
            if (std::memcmp(&ba.bh, &bb.bh, sizeof(BlockHeader)) != 0) {
                d.structural = "block geometry differs between the "
                               "checkpoints";
                return d;
            }
            for (std::size_t fi = 0; fi < ba.fields.size(); ++fi) {
                const ParsedField& fa = ba.fields[fi];
                const ParsedField& fb = bb.fields[fi];
                if (fa.name != fb.name ||
                    fa.payload.size() != fb.payload.size()) {
                    d.structural = "field layout differs between the "
                                   "checkpoints";
                    return d;
                }
                if (std::memcmp(fa.payload.data(), fb.payload.data(),
                                fa.payload.size()) == 0)
                    continue;
                // Walk the values to find and report each difference.
                const std::size_t nvals =
                    fa.payload.size() / fa.fh.valueBytes;
                const int nf = static_cast<int>(fa.fh.components);
                for (std::size_t i = 0; i < nvals; ++i) {
                    if (std::memcmp(fa.payload.data() + i * fa.fh.valueBytes,
                                    fb.payload.data() + i * fa.fh.valueBytes,
                                    fa.fh.valueBytes) == 0)
                        continue;
                    const double va = fa.value(i);
                    const double vb = fb.value(i);
                    ++d.differingValues;
                    const double ad = std::abs(va - vb);
                    d.maxAbsDiff = std::max(d.maxAbsDiff, ad);
                    if (first) {
                        first = false;
                        const std::size_t cellIdx =
                            i / static_cast<std::size_t>(nf);
                        const int nx = ba.bh.nx, ny = ba.bh.ny;
                        d.rank = r;
                        d.blockIdx = ba.bh.blockIdx;
                        d.field = fa.name;
                        d.component = static_cast<int>(
                            i % static_cast<std::size_t>(nf));
                        const int lx = static_cast<int>(cellIdx % nx);
                        const int ly = static_cast<int>((cellIdx / nx) % ny);
                        const int lz = static_cast<int>(
                            cellIdx / (static_cast<std::size_t>(nx) * ny));
                        d.cell = {ba.bh.originX + lx, ba.bh.originY + ly,
                                  ba.bh.originZ + lz};
                        d.valueA = va;
                        d.valueB = vb;
                    }
                }
            }
        }
    }
    d.identical = first;
    return d;
}

std::size_t checkpointBytes(const core::Solver& solver,
                            CheckpointPrecision precision) {
    std::size_t bytes = sizeof(FileHeader);
    for (const auto& b : solver.localBlocks()) {
        bytes += sizeof(BlockHeader) + 2 * sizeof(FieldHeader);
        bytes += static_cast<std::size_t>(b->numCells()) *
                 (core::N + core::KC) *
                 static_cast<std::size_t>(valueBytes(precision));
    }
    return bytes;
}

} // namespace tpf::io
