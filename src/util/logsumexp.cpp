#include "util/logsumexp.h"

#include <cmath>

namespace econcast::util {

double LogSumExp::value() const noexcept {
  if (max_ == kLogZero) return kLogZero;
  return max_ + std::log(sum_);
}

double log_sum_exp(std::span<const double> log_values) noexcept {
  LogSumExp acc;
  for (const double v : log_values) acc.add(v);
  return acc.value();
}

}  // namespace econcast::util
