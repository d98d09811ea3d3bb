#include "econcast/rates.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace econcast::proto {

const char* to_string(Variant variant) noexcept {
  return variant == Variant::kCapture ? "EconCast-C" : "EconCast-NC";
}

namespace {
// exp with the exponent clamped to avoid inf/0-collapse during transients
// (η far from η* can momentarily produce huge exponents).
double safe_exp(double x) noexcept {
  return std::exp(std::clamp(x, -700.0, 700.0));
}
}  // namespace

RateController::RateController(double listen_power, double transmit_power,
                               double sigma, Variant variant, model::Mode mode)
    : listen_power_(listen_power),
      transmit_power_(transmit_power),
      sigma_(sigma),
      variant_(variant),
      mode_(mode) {
  if (!(listen_power > 0.0) || !(transmit_power > 0.0))
    throw std::invalid_argument("power levels must be positive");
  if (!(sigma > 0.0)) throw std::invalid_argument("sigma must be positive");
}

double RateController::effective_estimate(double listener_count) const noexcept {
  if (mode_ == model::Mode::kGroupput) return std::max(0.0, listener_count);
  return listener_count > 0.0 ? 1.0 : 0.0;
}

double RateController::sleep_to_listen(double eta,
                                       bool channel_idle) const noexcept {
  if (!channel_idle) return 0.0;
  return safe_exp(-eta * listen_power_ / sigma_);
}

double RateController::listen_to_transmit(double eta, double listener_count,
                                          bool channel_idle) const noexcept {
  if (!channel_idle) return 0.0;
  double exponent = eta * (listen_power_ - transmit_power_) / sigma_;
  if (variant_ == Variant::kNonCapture)
    exponent += effective_estimate(listener_count) / sigma_;
  return safe_exp(exponent);
}

void RateController::fill_listen_to_transmit_row(
    double eta, double* row, std::size_t width) const noexcept {
  // The same exponent expressions as listen_to_transmit above, with the
  // count-invariant base hoisted; entry c must stay bit-identical to
  // listen_to_transmit(eta, c, true).
  const double base = eta * (listen_power_ - transmit_power_) / sigma_;
  if (variant_ != Variant::kNonCapture) {
    // (18c): the capture entry rate carries no listener-count term.
    const double rate = safe_exp(base);
    for (std::size_t c = 0; c < width; ++c) row[c] = rate;
  } else if (mode_ != model::Mode::kGroupput) {
    // Anyput drives with 1{c > 0}: the row holds two distinct values.
    if (width > 0) row[0] = safe_exp(base + 0.0 / sigma_);
    if (width > 1) {
      const double active = safe_exp(base + 1.0 / sigma_);
      for (std::size_t c = 1; c < width; ++c) row[c] = active;
    }
  } else {
    for (std::size_t c = 0; c < width; ++c)
      row[c] = safe_exp(base + static_cast<double>(c) / sigma_);
  }
}

std::size_t RateController::listen_to_transmit_width(
    std::size_t max_count) const noexcept {
  if (variant_ != Variant::kNonCapture) return 1;
  return mode_ == model::Mode::kGroupput ? max_count + 1 : 2;
}

double RateController::transmit_to_listen(double listener_count) const noexcept {
  if (variant_ == Variant::kNonCapture) return 1.0;  // (18f)
  return safe_exp(-effective_estimate(listener_count) / sigma_);  // (18e)
}

double RateController::continue_probability(double listener_count) const noexcept {
  if (variant_ == Variant::kNonCapture) return 0.0;
  return 1.0 - transmit_to_listen(listener_count);
}

}  // namespace econcast::proto
