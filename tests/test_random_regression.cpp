// Golden-value regression tests for util/random. The entire repository's
// replayability rests on these generators being bit-stable: every simulation,
// heterogeneity sample, and testbed noise draw flows from them. If a refactor
// changes any value below it silently invalidates every recorded experiment,
// so the change must be deliberate and these constants regenerated with it.
// The horizon draw (Rng::exponential_until) is checked against
// now + exponential(rate) bit for bit, on the stream and on chosen uniforms.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/random.h"

namespace {

using namespace econcast::util;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RandomRegression, SplitMix64KnownSequence) {
  std::uint64_t state = 42;
  const std::uint64_t expected[] = {
      0xBDD732262FEB6E95ULL, 0x28EFE333B266F103ULL,
      0x47526757130F9F52ULL, 0x581CE1FF0E4AE394ULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(splitmix64_next(state), e);
}

TEST(RandomRegression, Xoshiro256KnownSequence) {
  Xoshiro256 gen(2016);
  const std::uint64_t expected[] = {
      0x2783899F312CA7A0ULL, 0x0624859DA8FD69E2ULL,
      0xB6D231296DD6A35BULL, 0xD160CD437036B5F1ULL,
      0xA25BC6376E6C9BBCULL, 0xC15E01F80AEF96D0ULL,
      0x839FEE18094502D2ULL, 0xD5D5542B85D2A9CAULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(gen(), e);
}

TEST(RandomRegression, UniformKnownSequence) {
  Rng rng(2016);
  const double expected[] = {
      0.15435085426831785, 0.02399478053211157, 0.71414477597667281,
      0.81788332840388978, 0.63421286443046865, 0.75534069352846545};
  // Exact equality on purpose: uniform() is defined as a deterministic
  // function of the bit stream (top 53 bits scaled by 2^-53).
  for (const double e : expected) EXPECT_EQ(rng.uniform(), e);
}

TEST(RandomRegression, ExponentialKnownSequence) {
  Rng rng(2016);
  const double expected[] = {
      0.33530145350789897, 0.048574689535769246, 2.5045396120766403,
      3.406215489131978};
  for (const double e : expected) EXPECT_EQ(rng.exponential(0.5), e);
}

TEST(RandomRegression, UniformIntKnownSequence) {
  Rng rng(2016);
  const std::uint64_t expected[] = {896, 914, 339, 225, 772, 368};
  for (const std::uint64_t e : expected) EXPECT_EQ(rng.uniform_int(1000), e);
}

// Block-refill mode must reproduce the unbuffered stream exactly: the same
// golden constants as above, drawn through the batched path. Any divergence
// here means the buffered u64→[0,1) conversion or the cursor bookkeeping
// changed the stream, which would invalidate every recorded experiment.
TEST(RandomRegression, BlockModeUniformMatchesGolden) {
  Rng rng(2016, Rng::kDefaultBlock);
  const double expected[] = {
      0.15435085426831785, 0.02399478053211157, 0.71414477597667281,
      0.81788332840388978, 0.63421286443046865, 0.75534069352846545};
  for (const double e : expected) EXPECT_EQ(rng.uniform(), e);
}

TEST(RandomRegression, BlockModeExponentialMatchesGolden) {
  Rng rng(2016, Rng::kDefaultBlock);
  const double expected[] = {
      0.33530145350789897, 0.048574689535769246, 2.5045396120766403,
      3.406215489131978};
  for (const double e : expected) EXPECT_EQ(rng.exponential(0.5), e);
}

TEST(RandomRegression, BlockModeUniformIntMatchesGolden) {
  Rng rng(2016, Rng::kDefaultBlock);
  const std::uint64_t expected[] = {896, 914, 339, 225, 772, 368};
  for (const std::uint64_t e : expected) EXPECT_EQ(rng.uniform_int(1000), e);
}

// Interleaved draws exercise the shared cursor across both buffers (u01 for
// uniform/exponential, raw bits for uniform_int/fork) and across multiple
// refills, including odd block sizes that leave partial batches.
TEST(RandomRegression, BlockModeInterleavedStreamMatchesUnbuffered) {
  for (const std::size_t block : {std::size_t{1}, std::size_t{3},
                                  std::size_t{32}, Rng::kDefaultBlock}) {
    Rng reference(99);
    Rng batched(99, block);
    for (int i = 0; i < 1000; ++i) {
      switch (i % 4) {
        case 0:
          EXPECT_EQ(reference.uniform(), batched.uniform()) << "block=" << block;
          break;
        case 1:
          EXPECT_EQ(reference.exponential(2.5), batched.exponential(2.5))
              << "block=" << block;
          break;
        case 2:
          EXPECT_EQ(reference.uniform_int(12345), batched.uniform_int(12345))
              << "block=" << block;
          break;
        case 3: {
          Rng fr = reference.fork();
          Rng fb = batched.fork();
          EXPECT_EQ(fr.uniform(), fb.uniform()) << "block=" << block;
          break;
        }
      }
    }
  }
}

TEST(RandomRegression, ForkInheritsBlockModeAndStream) {
  Rng reference(7);
  Rng batched(7, Rng::kDefaultBlock);
  Rng fork_ref = reference.fork();
  Rng fork_batched = batched.fork();
  for (int i = 0; i < 600; ++i)
    EXPECT_EQ(fork_ref.uniform(), fork_batched.uniform());
}

TEST(RandomRegression, ExponentialRejectsInvalidRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // A rejected draw must not consume from the stream.
  Rng pristine(1);
  EXPECT_EQ(rng.uniform(), pristine.uniform());
}

// ------------------------------------------------------- the horizon draw --

/// Checks a horizon draw against the exact arrival `t`: kept exactly when
/// t <= limit, and then as t to the bit.
void expect_arrival(const std::optional<double>& got, double t, double limit) {
  ASSERT_EQ(got.has_value(), t <= limit)
      << "t " << t << " limit " << limit;
  if (got) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(t))
        << *got << " vs " << t;
  }
}

// exponential_until against now + exponential(rate) on two copies of one
// stream, at rates from 1e-12 to 1e6, with limits on the arrival, one ULP
// either side of it, at `now` (span 0) and around the mean sojourn.
TEST(HorizonDraw, MatchesExponentialOnTheStream) {
  Rng fast(11, Rng::kDefaultBlock);
  Rng exact(11, Rng::kDefaultBlock);
  Rng inputs(12);
  int kept = 0;
  for (int k = 0; k < 60000; ++k) {
    const double rate = std::pow(10.0, inputs.uniform(-12.0, 6.0));
    const double now = k % 3 == 0 ? 0.0 : inputs.uniform(0.0, 1e7);
    // The next arrival, peeked on a copy, so that limits can sit on it.
    const double next = now + Rng(exact).exponential(rate);
    double limit = 0.0;
    switch (k % 7) {
      case 0: limit = next; break;
      case 1: limit = std::nextafter(next, -kInf); break;
      case 2: limit = std::nextafter(next, kInf); break;
      case 3: limit = now; break;
      case 4: limit = std::nextafter(now, -kInf); break;
      default: limit = now + inputs.uniform(0.0, 3.0) / rate; break;
    }
    const std::optional<double> got = fast.exponential_until(now, rate, limit);
    const double t = now + exact.exponential(rate);
    ASSERT_EQ(t, next);
    expect_arrival(got, t, limit);
    kept += got ? 1 : 0;
  }
  EXPECT_GT(kept, 20000);
  EXPECT_LT(kept, 40000);
  // One uniform per draw on both sides: the streams end at one position.
  for (int k = 0; k < 300; ++k) EXPECT_EQ(fast.uniform(), exact.uniform());
  EXPECT_EQ(fast.uniform_int(1ULL << 62), exact.uniform_int(1ULL << 62));
}

// The arithmetic on chosen uniforms: the smallest ones, where -log(1 - u)
// is within rounding of u and the shortcut's bound is tight; times so
// large that the sojourn rounds away (t == now); limits on the arrival,
// ULPs either side of it, at now, and just below the shortcut's threshold
// u / rate; rates from 1e-12 to 1e6 and, for the margin's floor, rates so
// large that the sojourn underflows.
TEST(HorizonDraw, AdversarialUniformsMatchTheExactArrival) {
  const double k53 = 0x1.0p-53;
  const std::vector<double> uniforms = {
      0.0,         k53,      2 * k53,        3 * k53,  0x1.0p-45,
      0x1.0p-41,   0x1.0p-40, 0x1.0p-39,     0x1.0p-30, 0x1.0p-20,
      1e-6 - std::fmod(1e-6, k53), 0.25,     0.5,      1.0 - 0x1.0p-40,
      1.0 - k53};
  std::vector<double> rates;
  for (int e = -12; e <= 6; ++e) rates.push_back(std::pow(10.0, e));
  rates.push_back(0.37);
  rates.push_back(1e300);
  rates.push_back(std::numeric_limits<double>::max());
  const double nows[] = {0.0, 0.5, 1.0, 12345.678, 1e6, 1e7 - 0.3, 1e12};
  int cases = 0;
  for (const double u : uniforms) {
    for (const double rate : rates) {
      for (const double now : nows) {
        const double t = now + -std::log(1.0 - u) / rate;
        std::vector<double> limits = {now, std::nextafter(now, -kInf),
                                      std::nextafter(now, kInf)};
        double below = t, above = t;
        limits.push_back(t);
        for (int ulps = 1; ulps <= 4; ++ulps) {
          below = std::nextafter(below, -kInf);
          above = std::nextafter(above, kInf);
          limits.push_back(below);
          limits.push_back(above);
        }
        for (const double m : {0.0, 0.5, 1.0, 2.0, 4.0})
          limits.push_back(now + u / rate * (1.0 - m * 0x1.0p-40));
        for (const double limit : limits) {
          expect_arrival(Rng::arrival_until(u, now, rate, limit), t, limit);
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 30000);
}

TEST(HorizonDraw, RejectsInvalidRateWithoutDrawing) {
  Rng rng(1);
  for (const double rate : {0.0, -1.0, -kInf, kInf,
                            std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW((void)rng.exponential_until(0.0, rate, 1.0),
                 std::invalid_argument)
        << rate;
  Rng pristine(1);
  EXPECT_EQ(rng.uniform(), pristine.uniform());
}

TEST(RandomRegression, GeometricContinuesRejectsInvalidProbability) {
  Rng rng(1);
  EXPECT_THROW(rng.geometric_continues(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.geometric_continues(1.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric_continues(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  Rng pristine(1);
  EXPECT_EQ(rng.uniform(), pristine.uniform());
}

}  // namespace
