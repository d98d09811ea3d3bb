#include "util/random.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace econcast::util {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64_next(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (void)(*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Rng::refill() {
  // Generator outputs in stream order (the recurrence is sequential, so
  // the batch win here is the tight loop and the single state round-trip),
  // then the whole block converted to [0, 1) in a second, branch-free loop.
  // Both views of the block are kept: uniform() consumes u01_[i], raw-bit
  // draws consume raw_[i], and one cursor walks them in lockstep so the
  // stream order is exactly the unbuffered path's.
  for (std::size_t i = 0; i < block_; ++i) raw_[i] = gen_();
  for (std::size_t i = 0; i < block_; ++i) u01_[i] = to_u01(raw_[i]);
  pos_ = 0;
  fill_ = block_;
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate))
    throw std::invalid_argument("exponential rate must be positive and "
                                "finite, got " +
                                std::to_string(rate));
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - uniform()) / rate;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Lemire-style rejection sampling for an unbiased result.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_bits();
    if (r >= threshold) return r % n;
  }
}

std::uint64_t Rng::geometric_continues(double p_continue) {
  if (!(p_continue >= 0.0 && p_continue < 1.0))
    throw std::invalid_argument("geometric continue-probability must be in "
                                "[0, 1), got " +
                                std::to_string(p_continue));
  std::uint64_t count = 0;
  while (bernoulli(p_continue)) ++count;
  return count;
}

Rng Rng::fork() {
  std::uint64_t s = next_bits();
  return Rng(splitmix64_next(s), block_);
}

}  // namespace econcast::util
