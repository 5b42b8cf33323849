#pragma once
/// \file stats.h
/// Order statistics for repeated measurements.

#include <vector>

namespace tpfbench {

/// Median, quartiles and range of a sample. The quartiles follow Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so numbers
/// printed here match a reviewer's recomputation from the raw values.
struct Summary {
    int n = 0;
    double median = 0.0, q1 = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
};

Summary summarize(std::vector<double> values);

double median(std::vector<double> values);

/// Nearest-rank percentile (\p p in (0, 100]): the smallest sample with at
/// least p percent of the samples at or below it.
double percentile(std::vector<double> values, double p);

} // namespace tpfbench
