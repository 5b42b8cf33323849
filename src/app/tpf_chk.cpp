/// \file tpf_chk.cpp
/// Checkpoint and telemetry-artifact inspection utility:
///
///   tpf-chk info <dir>      print the self-describing metadata of a
///                           checkpoint directory (format version, step,
///                           simulated time, window offset, grid, ranks
///                           and each rank's z-extent, stored precision)
///   tpf-chk diff <a> <b>    field-by-field comparison of two checkpoints;
///                           exit 0 when bitwise identical, 1 with the first
///                           divergent field and cell otherwise
///   tpf-chk trace <file>    validate a --trace Chrome trace-event JSON:
///                           well-formed JSON, balanced B/E spans per rank,
///                           monotonic per-rank timestamps; prints the rank/
///                           event/span-name summary, exit 0 iff valid
///   tpf-chk metrics <file>  validate a --metrics CSV: "# tpf-metrics v1"
///                           schema line, rectangular rows, strictly
///                           increasing step keys; prints a summary
///
/// `diff` is the CLI face of io::compareCheckpoints — the same routine the
/// golden-run regression suite and the CI restart-equivalence smoke use, so
/// a red CI step can be reproduced verbatim on a workstation. `trace` and
/// `metrics` are the CLI face of obs::validateTraceFile and
/// io::readCsvSeries, used by the smoke_obs ctest and CI.

#include <cstdio>
#include <cstring>
#include <string>

#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: tpf-chk info <checkpoint-dir>\n"
                 "       tpf-chk diff <checkpoint-dir-a> <checkpoint-dir-b>\n"
                 "       tpf-chk trace <trace.json>\n"
                 "       tpf-chk metrics <metrics.csv>\n");
    return 2;
}

int info(const std::string& dir) {
    using namespace tpf;
    try {
        const io::CheckpointMeta m = io::readCheckpointMeta(dir);
        std::printf("checkpoint      %s\n", dir.c_str());
        std::printf("format version  %d\n", m.formatVersion);
        std::printf("precision       float%d (%s)\n", 8 * m.precisionBytes,
                    m.precisionBytes == 8 ? "exact restart" : "lossy");
        std::printf("step            %lld\n", m.step);
        std::printf("time            %.17g\n", m.time);
        std::printf("window offset   %.17g cells\n", m.windowOffset);
        std::printf("global cells    %d x %d x %d\n", m.globalCells.x,
                    m.globalCells.y, m.globalCells.z);
        std::printf("block cells     %d x %d x %d\n", m.blockCells.x,
                    m.blockCells.y, m.blockCells.z);
        std::printf("ranks           %d\n", m.numRanks);
        for (std::size_t r = 0; r < m.rankZ.size(); ++r)
            std::printf("  rank %-4zu     z [%d, %d)  %d planes\n", r,
                        m.rankZ[r][0], m.rankZ[r][1],
                        m.rankZ[r][1] - m.rankZ[r][0]);
        return 0;
    } catch (const io::CheckpointError& e) {
        std::fprintf(stderr, "tpf-chk: %s\n", e.what());
        return 2;
    }
}

int diff(const std::string& a, const std::string& b) {
    using namespace tpf;
    const io::CheckpointDiff d = io::compareCheckpoints(a, b);
    std::printf("%s\n", d.message().c_str());
    return d.identical ? 0 : 1;
}

int trace(const std::string& file) {
    using namespace tpf;
    const obs::TraceCheck c = obs::validateTraceFile(file);
    if (!c.ok) {
        std::fprintf(stderr, "tpf-chk: invalid trace: %s\n",
                     c.message.c_str());
        return 1;
    }
    std::printf("trace           %s\n", file.c_str());
    std::printf("ranks           %d\n", c.ranks);
    std::printf("duration events %lld (balanced)\n", c.events);
    std::printf("span names      ");
    for (std::size_t i = 0; i < c.spanNames.size(); ++i)
        std::printf("%s%s", i > 0 ? ", " : "", c.spanNames[i].c_str());
    std::printf("\n");
    return 0;
}

int metrics(const std::string& file) {
    using namespace tpf;
    try {
        const io::CsvSeries series = io::readCsvSeries(file);
        const std::string schema =
            std::string("# ") + obs::MetricsRegistry::kCsvTag + " v" +
            std::to_string(obs::MetricsRegistry::kCsvVersion);
        if (series.schema != schema) {
            std::fprintf(stderr,
                         "tpf-chk: %s carries schema '%s', expected '%s'\n",
                         file.c_str(), series.schema.c_str(), schema.c_str());
            return 1;
        }
        for (std::size_t i = 1; i < series.rows.size(); ++i) {
            if (series.stepOf(i) <= series.stepOf(i - 1)) {
                std::fprintf(stderr,
                             "tpf-chk: %s: step keys not strictly increasing "
                             "at row %zu (%lld after %lld)\n",
                             file.c_str(), i, series.stepOf(i),
                             series.stepOf(i - 1));
                return 1;
            }
        }
        std::printf("metrics         %s\n", file.c_str());
        std::printf("schema          %s\n", series.schema.c_str());
        std::printf("columns         %zu\n", series.columns.size());
        std::printf("rows            %zu", series.rows.size());
        if (!series.rows.empty())
            std::printf("  (steps %lld..%lld)", series.stepOf(0),
                        series.stepOf(series.rows.size() - 1));
        std::printf("\n");
        return 0;
    } catch (const io::CsvError& e) {
        std::fprintf(stderr, "tpf-chk: %s\n", e.what());
        return 1;
    }
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "info" && argc == 3) return info(argv[2]);
    if (cmd == "diff" && argc == 4) return diff(argv[2], argv[3]);
    if (cmd == "trace" && argc == 3) return trace(argv[2]);
    if (cmd == "metrics" && argc == 3) return metrics(argv[2]);
    return usage();
}
