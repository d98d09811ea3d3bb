// Tests for the Gibbs distribution (19): exact enumeration (bit for bit
// against a per-state reference), the symmetric collapse, dual function
// identities, and the burstiness sums of Appendix E.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "gibbs/burstiness.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "gibbs/symmetric.h"
#include "util/logsumexp.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::gibbs;
using model::Mode;

model::NodeSet paper_nodes(std::size_t n = 5) {
  return model::homogeneous(n, 10.0, 500.0, 500.0);
}

TEST(ExactGibbs, DistributionSumsToOne) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  const std::vector<double> eta(5, 0.003);
  const auto pi = g.distribution(eta);
  const double total = std::accumulate(pi.begin(), pi.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExactGibbs, ZeroEtaFavorsHighThroughputStates) {
  // With η = 0 the weight is exp(T_w/σ): the best groupput state (one
  // transmitter, all others listening) dominates every other single state.
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  const std::vector<double> eta(5, 0.0);
  const auto pi = g.distribution(eta);
  const auto best = model::state_index(5, model::NetState{0, 0b11110});
  const auto idle = model::state_index(5, model::NetState{-1, 0});
  EXPECT_GT(pi[best], pi[idle]);
}

TEST(ExactGibbs, LargeEtaForcesSleep) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  const std::vector<double> eta(5, 10.0);  // punishing multipliers
  const Marginals m = g.marginals(eta);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LT(m.alpha[i], 1e-6);
    EXPECT_LT(m.beta[i], 1e-6);
  }
}

TEST(ExactGibbs, MarginalsMatchBruteForce) {
  const auto nodes = paper_nodes(4);
  const ExactGibbs g(nodes, Mode::kGroupput, 0.4);
  const std::vector<double> eta{0.001, 0.002, 0.003, 0.004};
  const Marginals m = g.marginals(eta);
  const auto pi = g.distribution(eta);
  for (std::size_t i = 0; i < 4; ++i) {
    double alpha = 0.0, beta = 0.0;
    model::for_each_state(4, [&](const model::NetState& s) {
      const double p = pi[model::state_index(4, s)];
      if (s.listeners & (1ULL << i)) alpha += p;
      if (s.transmitter == static_cast<int>(i)) beta += p;
    });
    EXPECT_NEAR(m.alpha[i], alpha, 1e-12);
    EXPECT_NEAR(m.beta[i], beta, 1e-12);
  }
}

TEST(ExactGibbs, ExpectedThroughputMatchesBruteForce) {
  const auto nodes = paper_nodes(4);
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const ExactGibbs g(nodes, mode, 0.3);
    const std::vector<double> eta(4, 0.002);
    const auto pi = g.distribution(eta);
    double expect = 0.0;
    model::for_each_state(4, [&](const model::NetState& s) {
      expect += pi[model::state_index(4, s)] * model::state_throughput(s, mode);
    });
    EXPECT_NEAR(g.marginals(eta).expected_throughput, expect, 1e-12);
  }
}

TEST(ExactGibbs, EntropyMatchesDirectSum) {
  const auto nodes = paper_nodes(4);
  const ExactGibbs g(nodes, Mode::kGroupput, 0.5);
  const std::vector<double> eta(4, 0.004);
  const auto pi = g.distribution(eta);
  double h = 0.0;
  for (const double p : pi)
    if (p > 0.0) h -= p * std::log(p);
  EXPECT_NEAR(g.marginals(eta).entropy, h, 1e-9);
}

TEST(ExactGibbs, SmallSigmaIsNumericallyStable) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.02);
  const std::vector<double> eta(5, 0.001);
  const Marginals m = g.marginals(eta);
  EXPECT_TRUE(std::isfinite(m.log_partition));
  EXPECT_TRUE(std::isfinite(m.expected_throughput));
  EXPECT_GE(m.expected_throughput, 0.0);
  EXPECT_LE(m.expected_throughput, 4.0 + 1e-9);
}

TEST(ExactGibbs, DualGradientMatchesFiniteDifference) {
  const auto nodes = paper_nodes(3);
  const ExactGibbs g(nodes, Mode::kGroupput, 0.5);
  std::vector<double> eta{0.002, 0.001, 0.003};
  const auto grad = g.dual_gradient(eta);
  const double h = 1e-7;
  for (std::size_t i = 0; i < 3; ++i) {
    auto hi = eta, lo = eta;
    hi[i] += h;
    lo[i] -= h;
    const double fd = (g.dual_value(hi) - g.dual_value(lo)) / (2.0 * h);
    EXPECT_NEAR(grad[i], fd, 1e-4);
  }
}

TEST(ExactGibbs, DualIsConvexAlongRandomLines) {
  econcast::util::Rng rng(11);
  const auto nodes = paper_nodes(3);
  const ExactGibbs g(nodes, Mode::kAnyput, 0.4);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> a(3), d(3);
    for (std::size_t i = 0; i < 3; ++i) {
      // Keep a + t d >= 0 on t in [0, 1] so the segment stays in the domain
      // (projecting would break convexity along the line).
      a[i] = rng.uniform(0.002, 0.01);
      d[i] = rng.uniform(-0.002, 0.002);
    }
    auto at = [&](double t) {
      std::vector<double> e(3);
      for (std::size_t i = 0; i < 3; ++i) e[i] = a[i] + t * d[i];
      return g.dual_value(e);
    };
    // Midpoint convexity on a segment.
    EXPECT_LE(at(0.5), 0.5 * at(0.0) + 0.5 * at(1.0) + 1e-12);
  }
}

TEST(ExactGibbs, RejectsBadConstruction) {
  EXPECT_THROW(ExactGibbs(paper_nodes(), Mode::kGroupput, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ExactGibbs(model::homogeneous(17, 1, 1, 1), Mode::kGroupput, 1),
               std::invalid_argument);
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  EXPECT_THROW(g.marginals({0.0, 0.0}), std::invalid_argument);
}

// ------------------------------------------------- bit-for-bit reference --

// The per-state reference: every log-weight recomputed through
// model::for_each_state, two passes for the marginals, one each for the
// dual, the burst sums and the distribution. ExactGibbs's state table and
// one-pass evaluation must reproduce every double of it bit for bit, since
// result files and paper tables print these values.
struct Reference {
  model::NodeSet nodes;
  Mode mode;
  double sigma;

  double log_weight(const model::NetState& state,
                    const std::vector<double>& eta) const {
    double exponent = model::state_throughput(state, mode);
    std::uint64_t mask = state.listeners;
    while (mask) {
      const int i = std::countr_zero(mask);
      exponent -= eta[static_cast<std::size_t>(i)] *
                  nodes[static_cast<std::size_t>(i)].listen_power;
      mask &= mask - 1;
    }
    if (state.has_transmitter()) {
      const auto tx = static_cast<std::size_t>(state.transmitter);
      exponent -= eta[tx] * nodes[tx].transmit_power;
    }
    return exponent / sigma;
  }

  double log_partition(const std::vector<double>& eta) const {
    util::LogSumExp log_z;
    model::for_each_state(nodes.size(), [&](const model::NetState& s) {
      log_z.add(log_weight(s, eta));
    });
    return log_z.value();
  }

  Marginals marginals(const std::vector<double>& eta) const {
    const std::size_t n = nodes.size();
    const double lz = log_partition(eta);
    Marginals out;
    out.log_partition = lz;
    out.alpha.assign(n, 0.0);
    out.beta.assign(n, 0.0);
    double expected_t = 0.0;
    double expected_exponent = 0.0;
    model::for_each_state(n, [&](const model::NetState& s) {
      const double lw = log_weight(s, eta);
      const double p = std::exp(lw - lz);
      if (p == 0.0) return;
      std::uint64_t mask = s.listeners;
      while (mask) {
        const int i = std::countr_zero(mask);
        out.alpha[static_cast<std::size_t>(i)] += p;
        mask &= mask - 1;
      }
      if (s.has_transmitter())
        out.beta[static_cast<std::size_t>(s.transmitter)] += p;
      expected_t += p * model::state_throughput(s, mode);
      expected_exponent += p * lw;
    });
    out.expected_throughput = expected_t;
    out.entropy = lz - expected_exponent;
    return out;
  }

  BurstSums burst_sums(const std::vector<double>& eta) const {
    util::LogSumExp log_z, mass, rate;
    model::for_each_state(nodes.size(), [&](const model::NetState& s) {
      const double lw = log_weight(s, eta);
      log_z.add(lw);
      if (s.has_transmitter() && s.any_listener()) {
        mass.add(lw);
        const double end_rate = mode == Mode::kGroupput
                                    ? static_cast<double>(s.listener_count())
                                    : 1.0;
        rate.add(lw - end_rate / sigma);
      }
    });
    const double lz = log_z.value();
    return BurstSums{mass.value() - lz, rate.value() - lz};
  }

  std::vector<double> distribution(const std::vector<double>& eta) const {
    const std::size_t n = nodes.size();
    std::vector<double> pi(model::state_space_size(n));
    const double lz = log_partition(eta);
    model::for_each_state(n, [&](const model::NetState& s) {
      pi[model::state_index(n, s)] = std::exp(log_weight(s, eta) - lz);
    });
    return pi;
  }

  double dual_value(const std::vector<double>& eta) const {
    double dual = sigma * log_partition(eta);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      dual += eta[i] * nodes[i].budget;
    return dual;
  }
};

/// Counts the doubles of `got` whose bits differ from `want`'s and keeps a
/// description of the first, so a failing sweep reports one line per case.
struct BitDiff {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::string first;

  void check(const char* what, double want, double got,
             std::size_t index = 0) {
    ++compared;
    if (std::bit_cast<std::uint64_t>(want) ==
        std::bit_cast<std::uint64_t>(got))
      return;
    if (mismatches++ > 0) return;
    std::ostringstream os;
    os << what << "[" << index << "]: want " << std::hexfloat << want
       << ", got " << got;
    first = os.str();
  }
  void check(const char* what, const std::vector<double>& want,
             const std::vector<double>& got) {
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i)
      check(what, want[i], got[i], i);
  }
};

/// The multipliers each case evaluates at: all zero (weights exp(T_w/σ)),
/// moderate values around the (P4) optimum with a zero entry, and
/// alternating 0 and 4, where every state in which a costly node listens or
/// transmits underflows to p = 0.
std::vector<std::vector<double>> eta_cases(std::size_t n, util::Rng& rng) {
  std::vector<double> moderate(n), stiff(n);
  for (std::size_t i = 0; i < n; ++i) {
    moderate[i] = i % 3 == 1 ? 0.0 : rng.uniform(0.0005, 0.02);
    stiff[i] = i % 2 == 0 ? 0.0 : 4.0;
  }
  return {std::vector<double>(n, 0.0), moderate, stiff};
}

TEST(ExactGibbs, BitIdenticalToPerStateReference) {
  util::Rng rng(1919);
  std::size_t underflowing_cases = 0;
  for (const std::size_t n : {2u, 3u, 5u, 8u, 12u, 16u}) {
    const model::NodeSet nodes = model::sample_heterogeneous(n, 170.0, rng);
    const auto etas = eta_cases(n, rng);
    for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
      for (const double sigma : {0.1, 0.25, 0.5, 1.0}) {
        const Reference ref{nodes, mode, sigma};
        const ExactGibbs g(nodes, mode, sigma);
        GibbsEvaluation eval;
        for (std::size_t e = 0; e < etas.size(); ++e) {
          const std::vector<double>& eta = etas[e];
          const std::string label = "N=" + std::to_string(n) + " " +
                                    model::to_string(mode) +
                                    " sigma=" + std::to_string(sigma) +
                                    " eta#" + std::to_string(e);
          g.evaluate(eta, eval);  // reuses the previous case's buffers
          BitDiff diff;
          std::size_t k = 0;
          model::for_each_state(n, [&](const model::NetState& s) {
            diff.check("log_weight", ref.log_weight(s, eta),
                       eval.log_weight[k], k);
            ++k;
          });
          const Marginals want = ref.marginals(eta);
          diff.check("log Z", want.log_partition, eval.log_partition);
          const BurstSums want_burst = ref.burst_sums(eta);
          const std::vector<double> want_pi = ref.distribution(eta);
          const double want_dual = ref.dual_value(eta);

          auto check_all = [&](const Marginals& got, const BurstSums& burst,
                               const std::vector<double>& pi, double dual) {
            diff.check("log_partition", want.log_partition, got.log_partition);
            diff.check("alpha", want.alpha, got.alpha);
            diff.check("beta", want.beta, got.beta);
            diff.check("expected_throughput", want.expected_throughput,
                       got.expected_throughput);
            diff.check("entropy", want.entropy, got.entropy);
            diff.check("log_success_mass", want_burst.log_success_mass,
                       burst.log_success_mass);
            diff.check("log_burst_rate", want_burst.log_burst_rate,
                       burst.log_burst_rate);
            diff.check("pi", want_pi, pi);
            diff.check("dual", want_dual, dual);
          };
          check_all(g.marginals(eval), g.burst_sums(eval),
                    g.distribution(eval), g.dual_value(eval));
          // The η-taking overloads evaluate and then consume; checking them
          // on the smaller networks keeps the N = 16 cases affordable.
          if (n <= 8)
            check_all(g.marginals(eta), g.burst_sums(eta),
                      g.distribution(eta), g.dual_value(eta));

          EXPECT_EQ(diff.mismatches, 0u)
              << label << ": " << diff.mismatches << " of " << diff.compared
              << " doubles differ; first " << diff.first;
          if (std::count(want_pi.begin(), want_pi.end(), 0.0) > 0)
            ++underflowing_cases;
        }
      }
    }
  }
  // The stiff multipliers must drive some probabilities to exactly 0, or
  // the p == 0 skip in the marginals goes unexercised.
  EXPECT_GE(underflowing_cases, 6u * 2u * 4u);
}

TEST(ExactGibbs, RejectsForeignEvaluation) {
  const ExactGibbs g3(paper_nodes(3), Mode::kGroupput, 0.5);
  const ExactGibbs g4(paper_nodes(4), Mode::kGroupput, 0.5);
  GibbsEvaluation eval;
  g3.evaluate(std::vector<double>(3, 0.001), eval);
  EXPECT_THROW(g4.marginals(eval), std::invalid_argument);
  EXPECT_THROW(g4.dual_value(eval), std::invalid_argument);
  EXPECT_THROW(g4.burst_sums(eval), std::invalid_argument);
  EXPECT_THROW(g4.distribution(eval), std::invalid_argument);
  EXPECT_THROW(g4.evaluate(std::vector<double>(3, 0.0), eval),
               std::invalid_argument);
  // Evaluating in place at the evaluation's own multipliers is allowed.
  eval.eta[1] = 0.004;
  g3.evaluate(eval.eta, eval);
  EXPECT_EQ(eval.eta, (std::vector<double>{0.001, 0.004, 0.001}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.log_partition),
            std::bit_cast<std::uint64_t>(
                g3.marginals(eval.eta).log_partition));
}

// ------------------------------------------------------ symmetric collapse --

TEST(SymmetricGibbs, MatchesExactEnumeration) {
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    for (const double sigma : {0.25, 0.5, 1.0}) {
      const auto nodes = paper_nodes(6);
      const SymmetricGibbs sym(6, nodes.front(), mode, sigma);
      const ExactGibbs exact(nodes, mode, sigma);
      for (const double eta : {0.0, 0.001, 0.005}) {
        const Marginals ms = sym.marginals(eta);
        const Marginals me = exact.marginals(std::vector<double>(6, eta));
        EXPECT_NEAR(ms.log_partition, me.log_partition, 1e-9)
            << model::to_string(mode) << " sigma=" << sigma << " eta=" << eta;
        EXPECT_NEAR(ms.alpha.front(), me.alpha.front(), 1e-9);
        EXPECT_NEAR(ms.beta.front(), me.beta.front(), 1e-9);
        EXPECT_NEAR(ms.expected_throughput, me.expected_throughput, 1e-9);
        EXPECT_NEAR(ms.entropy, me.entropy, 1e-7);
      }
    }
  }
}

TEST(SymmetricGibbs, BurstSumsMatchExact) {
  const auto nodes = paper_nodes(5);
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const SymmetricGibbs sym(5, nodes.front(), mode, 0.3);
    const ExactGibbs exact(nodes, mode, 0.3);
    const BurstSums a = sym.burst_sums(0.002);
    const BurstSums b = exact.burst_sums(std::vector<double>(5, 0.002));
    EXPECT_NEAR(a.log_success_mass, b.log_success_mass, 1e-9);
    EXPECT_NEAR(a.log_burst_rate, b.log_burst_rate, 1e-9);
  }
}

TEST(SymmetricGibbs, DualDerivativeMatchesFiniteDifference) {
  const SymmetricGibbs sym(8, {10.0, 500.0, 500.0}, Mode::kGroupput, 0.5);
  for (const double eta : {0.001, 0.004, 0.01}) {
    const double h = 1e-8;
    const double fd = (sym.dual_value(eta + h) - sym.dual_value(eta - h)) /
                      (2.0 * h);
    EXPECT_NEAR(sym.dual_derivative(eta), fd, 1e-3);
  }
}

TEST(SymmetricGibbs, OptimalEtaSatisfiesBudget) {
  const SymmetricGibbs sym(5, {10.0, 500.0, 500.0}, Mode::kGroupput, 0.5);
  const double eta = sym.solve_optimal_eta();
  const Marginals m = sym.marginals(eta);
  const double power = m.alpha.front() * 500.0 + m.beta.front() * 500.0;
  EXPECT_NEAR(power, 10.0, 1e-6);  // complementary slackness with η* > 0
  EXPECT_GT(eta, 0.0);
}

TEST(SymmetricGibbs, EnergyRichNetworkHasZeroEta) {
  // Budget large enough that damping is unnecessary.
  const SymmetricGibbs sym(4, {1e6, 1.0, 1.0}, Mode::kGroupput, 0.5);
  EXPECT_DOUBLE_EQ(sym.solve_optimal_eta(), 0.0);
}

TEST(SymmetricGibbs, ScalesToLargeN) {
  const SymmetricGibbs sym(200, {10.0, 500.0, 500.0}, Mode::kGroupput, 0.25);
  const double eta = sym.solve_optimal_eta();
  EXPECT_TRUE(std::isfinite(eta));
  const Marginals m = sym.marginals(eta);
  EXPECT_GT(m.expected_throughput, 0.0);
}

// ------------------------------------------------------------- burstiness --

TEST(Burstiness, AnyputClosedFormIndependentOfN) {
  // Eq. (35): B_a = exp(1/σ) regardless of N.
  for (const std::size_t n : {5u, 10u}) {
    const double b =
        average_burst_length(paper_nodes(n), Mode::kAnyput, 0.5);
    EXPECT_NEAR(b, std::exp(2.0), 0.02) << "N=" << n;
  }
  EXPECT_NEAR(anyput_burst_closed_form(0.25), std::exp(4.0), 1e-9);
}

TEST(Burstiness, GroupputGrowsAsSigmaShrinks) {
  double prev = 0.0;
  for (const double sigma : {1.0, 0.5, 0.25, 0.15}) {
    const double b =
        average_burst_length(paper_nodes(5), Mode::kGroupput, sigma);
    EXPECT_GT(b, prev) << "sigma=" << sigma;
    prev = b;
  }
}

TEST(Burstiness, GroupputGrowsWithN) {
  // Fig. 4(a): more listeners -> longer captures.
  const double b5 =
      average_burst_length(paper_nodes(5), Mode::kGroupput, 0.25);
  const double b10 =
      average_burst_length(paper_nodes(10), Mode::kGroupput, 0.25);
  EXPECT_GT(b10, b5);
}

TEST(Burstiness, GroupputAtLeastOnePacket) {
  EXPECT_GE(average_burst_length(paper_nodes(5), Mode::kGroupput, 1.0), 1.0);
}

TEST(Burstiness, PaperFigure4Magnitudes) {
  // §VII-D quotes an average burst length of ~85 for σ = 0.25, N = 10 and
  // ~4e5 for σ = 0.1 (we require the same order of magnitude).
  const double b25 =
      average_burst_length(paper_nodes(10), Mode::kGroupput, 0.25);
  EXPECT_GT(b25, 40.0);
  EXPECT_LT(b25, 200.0);
  const double b10 =
      average_burst_length(paper_nodes(10), Mode::kGroupput, 0.1);
  EXPECT_GT(b10, 5e4);
  EXPECT_LT(b10, 5e6);
}

TEST(Burstiness, RejectsBadSigma) {
  EXPECT_THROW(anyput_burst_closed_form(0.0), std::invalid_argument);
  EXPECT_THROW(anyput_burst_closed_form(-1.0), std::invalid_argument);
}

}  // namespace
