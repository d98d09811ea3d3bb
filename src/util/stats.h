// Statistics helpers used by the simulator metrics and the benchmark
// harnesses: streaming mean/variance, empirical CDFs with percentiles, and
// Student-t style confidence intervals for across-run aggregation.
#ifndef ECONCAST_UTIL_STATS_H
#define ECONCAST_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace econcast::util {

/// Welford streaming mean / variance / extrema.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 with fewer than 2 samples).
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Half-width of the ~95% confidence interval of the mean (normal
  /// approximation, 1.96 * stderr). 0 with fewer than 2 samples.
  double ci95_halfwidth() const noexcept;

  /// Raw Welford accumulator Σ(x - mean)² — exposed (with `restore`) so the
  /// checkpoint serializer can round-trip the exact internal state; variance
  /// reconstructed from variance() would not be bit-identical.
  double m2() const noexcept { return m2_; }

  /// Rebuilds an accumulator from previously serialized internals. The
  /// arguments must come from a matching (count, mean, m2, min, max)
  /// snapshot of another RunningStats.
  static RunningStats restore(std::size_t count, double mean, double m2,
                              double min, double max) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects raw samples; answers percentile / CDF queries after a sort.
/// Suitable for latency distributions (sample counts up to ~10^7).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double mean() const noexcept;

  /// p in [0, 1]; nearest-rank percentile. Requires at least one sample.
  double percentile(double p) const;

  /// Empirical CDF value at x: fraction of samples <= x.
  double cdf(double x) const;

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Discrete histogram over small non-negative integers (e.g. ping counts).
class Counter {
 public:
  void add(std::size_t value, std::uint64_t weight = 1);

  std::uint64_t total() const noexcept { return total_; }
  std::size_t max_value() const noexcept;
  /// Fraction of mass at `value` (0 if beyond range or empty).
  double fraction(std::size_t value) const noexcept;
  std::uint64_t count(std::size_t value) const noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace econcast::util

#endif  // ECONCAST_UTIL_STATS_H
