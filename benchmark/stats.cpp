#include "stats.h"

#include <algorithm>
#include <cmath>

namespace tpfbench {

Summary summarize(std::vector<double> v) {
    Summary s;
    s.n = static_cast<int>(v.size());
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    s.min = v.front();
    s.max = v.back();
    s.median = median(v);
    if (v.size() == 1) {
        s.q1 = s.q3 = v.front();
        return s;
    }
    // statistics.quantiles(v, n=4, method='exclusive'), integer arithmetic
    // included, so the interpolation weights are bit-for-bit Python's.
    const long long ld = static_cast<long long>(v.size());
    const long long m = ld + 1;
    auto cut = [&](long long i) {
        long long j = i * m / 4;
        j = std::clamp(j, 1LL, ld - 1);
        const long long delta = i * m - j * 4;
        return (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

} // namespace tpfbench
