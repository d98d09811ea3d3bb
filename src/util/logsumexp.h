// Log-domain accumulation. The Gibbs distribution (19) has weights
// exp(T_w/σ - ...) whose exponents reach hundreds for small σ, so partition
// functions and marginals must be accumulated as log-sum-exp.
#ifndef ECONCAST_UTIL_LOGSUMEXP_H
#define ECONCAST_UTIL_LOGSUMEXP_H

#include <cmath>
#include <limits>
#include <span>

namespace econcast::util {

/// Identity element for log-sum-exp accumulation (represents log(0)).
inline constexpr double kLogZero = -std::numeric_limits<double>::infinity();

/// Streaming log-sum-exp accumulator: after adding log-values l_1..l_n,
/// value() returns log(sum_i exp(l_i)) without overflow.
class LogSumExp {
 public:
  void add(double log_value) noexcept {
    if (log_value == kLogZero) return;
    if (log_value <= max_) {
      sum_ += std::exp(log_value - max_);
      return;
    }
    // New maximum: rescale the running sum.
    if (max_ == kLogZero) {
      sum_ = 1.0;
    } else {
      sum_ = sum_ * std::exp(max_ - log_value) + 1.0;
    }
    max_ = log_value;
  }

  /// log of the accumulated sum; kLogZero if nothing was added.
  double value() const noexcept;

  bool empty() const noexcept { return max_ == kLogZero; }

 private:
  double max_ = kLogZero;   // running maximum exponent
  double sum_ = 0.0;        // sum of exp(l_i - max_)
};

/// One-shot log-sum-exp over a span of log-values.
double log_sum_exp(std::span<const double> log_values) noexcept;

}  // namespace econcast::util

#endif  // ECONCAST_UTIL_LOGSUMEXP_H
