// Deterministic, seedable pseudo-random generation for all stochastic
// components (simulator, heterogeneity sampler, testbed noise models).
//
// We use xoshiro256** seeded through splitmix64: fast, high quality, and —
// unlike std::mt19937 + std::*_distribution — bit-for-bit reproducible across
// standard library implementations, which keeps every experiment in this
// repository replayable from its seed alone.
#ifndef ECONCAST_UTIL_RANDOM_H
#define ECONCAST_UTIL_RANDOM_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace econcast::util {

/// splitmix64: used to expand a single 64-bit seed into generator state.
/// Advances `state` and returns the next value of the sequence.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single seed via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Equivalent to 2^128 calls of operator(); used to derive independent
  /// parallel streams from one seed.
  void jump() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Convenience wrapper bundling the generator with the distributions this
/// project needs. All sampling is implemented here (not with std::
/// distributions) for cross-platform determinism.
///
/// Block-refill mode: constructed with `block > 0`, the Rng draws raw
/// generator outputs `block` at a time and converts the whole batch to
/// [0, 1) doubles in one loop, so uniform()/exponential() in the hot loops
/// become a buffered load. The consumption order is unchanged — every draw,
/// including the raw-bits draws of uniform_int() and fork(), takes the
/// *next* buffered generator output — and the conversion is the exact
/// to_u01 expression, so a block-mode Rng emits the bit-identical stream of
/// the unbuffered path for any interleaving of calls (the golden vectors in
/// test_random_regression prove it).
class Rng {
 public:
  /// The block size proto::Simulation uses; large enough to amortize the
  /// refill, small enough to stay in L1.
  static constexpr std::size_t kDefaultBlock = 256;

  explicit Rng(std::uint64_t seed = 1, std::size_t block = 0)
      : gen_(seed), block_(block) {
    if (block_ > 0) {
      raw_.resize(block_);
      u01_.resize(block_);
    }
  }

  /// Uniform on [0, 1). Uses the top 53 bits, so the result is an exact
  /// multiple of 2^-53.
  double uniform() {
    if (block_ == 0) return to_u01(gen_());
    if (pos_ == fill_) refill();
    return u01_[pos_++];
  }

  /// Uniform on [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Exponential with the given rate (mean 1/rate). Throws
  /// std::invalid_argument (naming the value) unless rate is positive and
  /// finite — a non-positive or NaN rate would silently return a negative,
  /// infinite or NaN sojourn time and corrupt every event after it.
  double exponential(double rate) {
    if (!(rate > 0.0) || !std::isfinite(rate)) throw_bad_rate(rate);
    return sojourn(uniform(), rate);
  }

  /// The arrival time now + exponential(rate) when it is at most `limit`,
  /// else std::nullopt: bit for bit the decision and the time of that
  /// expression, from the same one uniform and with the same rate check.
  std::optional<double> exponential_until(double now, double rate,
                                          double limit) {
    if (!(rate > 0.0) || !std::isfinite(rate)) throw_bad_rate(rate);
    return arrival_until(uniform(), now, rate, limit);
  }

  /// exponential_until on a given uniform u in [0, 1) and a positive,
  /// finite rate. Since -log(1 - u) >= u, u > rate · (limit - now + margin)
  /// proves the arrival later than `limit` without the logarithm and the
  /// division. The margin, 2^-40 of |limit - now| + |limit| plus the
  /// smallest normal double, is far above the rounding of the logarithm,
  /// the division and the sum, so the shortcut never refuses an arrival
  /// the exact expression keeps; every other u takes that expression.
  static std::optional<double> arrival_until(double u, double now,
                                             double rate,
                                             double limit) noexcept {
    const double span = limit - now;
    const double margin = (std::abs(span) + std::abs(limit)) * 0x1.0p-40 +
                          std::numeric_limits<double>::min();
    if (u > rate * (span + margin)) return std::nullopt;
    const double t = now + sojourn(u, rate);
    if (t <= limit) return t;
    return std::nullopt;
  }

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Geometric number of Bernoulli(p_continue) successes before the first
  /// failure, i.e. #extra trials; mean p/(1-p). Throws
  /// std::invalid_argument (naming the value) unless p_continue is in
  /// [0, 1) — p_continue >= 1 would loop forever and NaN would silently
  /// return 0.
  std::uint64_t geometric_continues(double p_continue);

  /// A fresh Rng whose stream is independent of this one
  /// (splitmix64-derived). The child inherits this Rng's block mode.
  Rng fork();

  /// Direct access to the underlying generator. Only meaningful for an
  /// unbuffered Rng (block 0): in block-refill mode the generator has
  /// already advanced past the buffered outputs, so drawing from it
  /// directly would skip them.
  Xoshiro256& generator() noexcept { return gen_; }

 private:
  static double to_u01(std::uint64_t bits) noexcept {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// The exponential sojourn of uniform u: 1 - u is in (0, 1], so the log
  /// argument is never zero.
  static double sojourn(double u, double rate) noexcept {
    return -std::log(1.0 - u) / rate;
  }

  /// The next raw generator output in stream order (buffered in block
  /// mode, so raw-bit draws stay aligned with the uniform() stream).
  std::uint64_t next_bits() {
    if (block_ == 0) return gen_();
    if (pos_ == fill_) refill();
    return raw_[pos_++];
  }

  void refill();
  /// Throws the std::invalid_argument of a rejected exponential rate.
  [[noreturn]] static void throw_bad_rate(double rate);

  Xoshiro256 gen_;
  std::size_t block_ = 0;            // 0: unbuffered scalar path
  std::size_t pos_ = 0, fill_ = 0;   // consumption cursor / buffered count
  std::vector<std::uint64_t> raw_;   // generator outputs, stream order
  std::vector<double> u01_;          // raw_ through to_u01
};

/// Fisher–Yates shuffle using the project Rng (std::shuffle is not
/// reproducible across standard libraries).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace econcast::util

#endif  // ECONCAST_UTIL_RANDOM_H
