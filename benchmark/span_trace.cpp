#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "json.h"

namespace tpfbench {

double now() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

void SpanLog::begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.t0 = now();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(s));
}

void SpanLog::end() {
    if (open_.empty()) throw std::logic_error("SpanLog::end without begin");
    spans_[static_cast<std::size_t>(open_.back())].t1 = now();
    open_.pop_back();
}

std::vector<std::byte> SpanLog::serialize() const {
    std::string text;
    char line[160];
    for (const Span& s : spans_) {
        std::snprintf(line, sizeof line, "%s %d %.17g %.17g\n",
                      s.name.c_str(), s.parent, s.t0, s.t1);
        text += line;
    }
    std::vector<std::byte> blob(text.size());
    std::memcpy(blob.data(), text.data(), text.size());
    return blob;
}

std::vector<SpanLog::Span>
SpanLog::deserialize(const std::vector<std::byte>& blob) {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
    std::vector<Span> spans;
    Span s;
    while (in >> s.name >> s.parent >> s.t0 >> s.t1) spans.push_back(s);
    return spans;
}

void appendSpans(std::vector<SpanLog::Span>& spans,
                 const std::vector<SpanLog::Span>& more) {
    const int offset = static_cast<int>(spans.size());
    for (SpanLog::Span s : more) {
        if (s.parent >= 0) s.parent += offset;
        spans.push_back(std::move(s));
    }
}

void writeChromeTrace(const std::string& path,
                      const std::vector<std::vector<SpanLog::Span>>& perRank) {
    double epoch = std::numeric_limits<double>::infinity();
    for (const auto& spans : perRank)
        for (const auto& s : spans) epoch = std::min(epoch, s.t0);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    auto event = [&](const std::string& body) {
        out << (first ? "" : ",\n") << body;
        first = false;
    };
    for (std::size_t rank = 0; rank < perRank.size(); ++rank) {
        const std::string pid = std::to_string(rank);
        event("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
              ",\"tid\":0,\"args\":{\"name\":\"rank " + pid + "\"}}");
        const auto& spans = perRank[rank];
        std::vector<std::vector<int>> children(spans.size() + 1);
        for (std::size_t i = 0; i < spans.size(); ++i)
            children[static_cast<std::size_t>(spans[i].parent + 1)].push_back(
                static_cast<int>(i));
        auto us = [&](double t) { return jsonNumber((t - epoch) * 1e6); };
        // Depth-first from the top-level spans: recording order within a
        // parent is time order, so the events come out time-sorted.
        std::function<void(int)> emit = [&](int i) {
            const auto& s = spans[static_cast<std::size_t>(i)];
            event("{\"name\":" + jsonString(s.name) + ",\"ph\":\"B\",\"pid\":" +
                  pid + ",\"tid\":0,\"ts\":" + us(s.t0) + "}");
            for (const int c : children[static_cast<std::size_t>(i + 1)])
                emit(c);
            event("{\"ph\":\"E\",\"pid\":" + pid + ",\"tid\":0,\"ts\":" +
                  us(s.t1) + "}");
        };
        for (const int root : children[0]) emit(root);
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("failed writing " + path);
}

std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<SpanLog::Span>& spans) {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].t1 - spans[i].t0;
        if (spans[i].parent >= 0)
            self[static_cast<std::size_t>(spans[i].parent)] -=
                spans[i].t1 - spans[i].t0;
    }
    std::vector<std::pair<std::string, double>> total;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto it = total.begin();
        while (it != total.end() && it->first != spans[i].name) ++it;
        if (it == total.end())
            total.emplace_back(spans[i].name, self[i]);
        else
            it->second += self[i];
    }
    return total;
}

double childSeconds(const std::vector<SpanLog::Span>& spans, int parent,
                    const std::string& name) {
    double sum = 0.0;
    for (const auto& s : spans)
        if (s.parent == parent && s.name == name) sum += s.t1 - s.t0;
    return sum;
}

} // namespace tpfbench
