// Local Lagrange-multiplier adaptation, eq. (17):
//   η[k] = ( η[k-1] - δ_k/τ_k · (b[k] - b[k-1]) )⁺
// The node observes only its own energy-storage delta over the k-th interval
// — a noisy estimate of (ρ - average power), which is exactly -∂D/∂η
// (eq. (22)) — so this is the stochastic-approximation dual descent of §VI.
//
// Two step schedules:
//  * kConstant:  δ_k = δ, τ_k = τ         (the practical choice of §V-F)
//  * kTheorem1:  δ_k = 1/((k+1)·ln(k+1)),  τ_k = k   (guaranteed convergence)
#ifndef ECONCAST_ECONCAST_MULTIPLIER_H
#define ECONCAST_ECONCAST_MULTIPLIER_H

#include <cstddef>

namespace econcast::proto {

enum class StepSchedule { kConstant, kTheorem1 };

struct MultiplierConfig {
  StepSchedule schedule = StepSchedule::kConstant;
  double delta = 0.02;    // δ for kConstant
  double tau = 50.0;      // τ for kConstant (packet-times)
  double eta_init = 0.0;  // starting multiplier
};

class MultiplierTracker {
 public:
  explicit MultiplierTracker(const MultiplierConfig& config);

  double eta() const noexcept { return eta_; }
  /// Length τ_k of the interval that is about to run (k starts at 1).
  double next_interval_length() const noexcept;
  /// Applies eq. (17) with the storage delta observed over the interval just
  /// finished, then advances k.
  void update(double storage_delta) noexcept;

  std::size_t intervals_completed() const noexcept { return k_ - 1; }

 private:
  double step_over_interval() const noexcept;  // δ_k / τ_k

  MultiplierConfig config_;
  double eta_;
  std::size_t k_ = 1;
};

}  // namespace econcast::proto

#endif  // ECONCAST_ECONCAST_MULTIPLIER_H
