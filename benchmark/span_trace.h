#pragma once
/// \file span_trace.h
/// The benchmark's own tracing: spans recorded around the calls it makes
/// into the solver, kept in memory per rank and written once, after the
/// traced reps, as a Chrome trace-event JSON with one pid per rank.
///
/// This is deliberately independent of the solver's telemetry (obs spans,
/// Timeloop timings, pool fan-out stats): the benchmark measures each layer
/// from outside, so a change to the program's own instrumentation cannot
/// change what the benchmark reports.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tpfbench {

/// Monotonic wall clock in seconds (steady_clock; comparable across forked
/// rank processes).
double now();

class SpanLog {
public:
    struct Span {
        std::string name;
        int parent = -1; ///< index of the enclosing span, -1 at top level
        double t0 = 0.0, t1 = 0.0;
    };

    void begin(const char* name);
    void end();

    const std::vector<Span>& spans() const { return spans_; }

    /// Byte blob for the rank-0 gather (one text line per span).
    std::vector<std::byte> serialize() const;
    static std::vector<Span> deserialize(const std::vector<std::byte>& blob);

private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span on an optional log: no-op when tracing is off (nullptr).
class SpanScope {
public:
    SpanScope(SpanLog* log, const char* name) : log_(log) {
        if (log_) log_->begin(name);
    }
    ~SpanScope() {
        if (log_) log_->end();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog* log_;
};

/// Append \p more after \p spans, keeping each span's parent.
void appendSpans(std::vector<SpanLog::Span>& spans,
                 const std::vector<SpanLog::Span>& more);

/// Write the spans of every rank (index = pid) as Chrome trace-event JSON,
/// with timestamps in microseconds from the earliest span. Throws
/// std::runtime_error on I/O failure.
void writeChromeTrace(const std::string& path,
                      const std::vector<std::vector<SpanLog::Span>>& perRank);

/// Self time (span duration minus the time its child spans cover), summed
/// per span name, in first-seen order.
std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<SpanLog::Span>& spans);

/// Summed duration of the direct children of span \p parent named \p name.
double childSeconds(const std::vector<SpanLog::Span>& spans, int parent,
                    const std::string& name);

} // namespace tpfbench
