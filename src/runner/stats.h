// Summary statistics over repeated runs.
#pragma once

#include <cstdint>
#include <vector>

namespace gridbox::runner {

struct SummaryStats {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n−1)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double ci95_half_width = 0.0;  ///< 1.96 · stderr (normal approximation)
};

/// Computes summary statistics of `samples`. Requires non-empty input.
[[nodiscard]] SummaryStats summarize(std::vector<double> samples);

/// Geometric mean of strictly positive samples; samples <= `floor` are
/// clamped to it first (incompleteness values of exactly 0 would otherwise
/// collapse log-scale summaries).
[[nodiscard]] double geometric_mean(const std::vector<double>& samples,
                                    double floor = 1e-12);

}  // namespace gridbox::runner
