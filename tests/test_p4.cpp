// Tests for the (P4) solvers: the accelerated dual method, the symmetric
// fast path, the paper's Algorithm 1 (kept here as a reference, it is not
// part of the product), and the theoretical relationships of §VI (duality,
// σ → 0 convergence to the oracle — Theorem 1's deterministic core), plus a
// bit-exact golden of the heterogeneous solves and a concurrency guard for
// a shared ExactGibbs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::gibbs;
using model::Mode;

model::NodeSet paper_nodes(std::size_t n = 5) {
  return model::homogeneous(n, 10.0, 500.0, 500.0);
}

/// The paper's Algorithm 1: projected gradient on the dual with step
/// δ_k = δ_0 / k, stopping when the relative KKT residual (budget
/// violations everywhere, slackness where η_i is active) drops below
/// `tolerance` or after `max_iterations`.
P4Result algorithm1(const ExactGibbs& gibbs, std::size_t max_iterations,
                    double tolerance, double delta0) {
  const std::size_t n = gibbs.num_nodes();
  const model::NodeSet& nodes = gibbs.nodes();
  const auto kkt_residual = [&](const std::vector<double>& eta,
                                const Marginals& m) {
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double power = m.alpha[i] * nodes[i].listen_power +
                           m.beta[i] * nodes[i].transmit_power;
      const double rel = (power - nodes[i].budget) / nodes[i].budget;
      res = std::max(res, rel);
      if (eta[i] > 1e-14) res = std::max(res, std::abs(rel));
    }
    return res;
  };
  const auto finalize = [&](GibbsEvaluation& eval, const Marginals& m,
                            std::size_t iterations, bool converged) {
    P4Result out;
    out.dual = gibbs.dual_value(eval);
    out.eta = std::move(eval.eta);
    out.alpha = m.alpha;
    out.beta = m.beta;
    out.throughput = m.expected_throughput;
    out.objective = m.expected_throughput + gibbs.sigma() * m.entropy;
    out.iterations = iterations;
    out.converged = converged;
    return out;
  };
  GibbsEvaluation eval;
  eval.eta.assign(n, 0.0);
  for (std::size_t k = 1; k <= max_iterations; ++k) {
    gibbs.evaluate(eval.eta, eval);
    const Marginals m = gibbs.marginals(eval);
    if (kkt_residual(eval.eta, m) < tolerance)
      return finalize(eval, m, k, true);
    const double delta = delta0 / static_cast<double>(k);
    for (std::size_t i = 0; i < n; ++i) {
      const double grad = nodes[i].budget -
                          (m.alpha[i] * nodes[i].listen_power +
                           m.beta[i] * nodes[i].transmit_power);
      eval.eta[i] = std::max(0.0, eval.eta[i] - delta * grad);
    }
  }
  gibbs.evaluate(eval.eta, eval);
  return finalize(eval, gibbs.marginals(eval), max_iterations, false);
}

void expect_budget_respected(const model::NodeSet& nodes, const P4Result& r,
                             double rel_tol) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double power = r.alpha[i] * nodes[i].listen_power +
                         r.beta[i] * nodes[i].transmit_power;
    EXPECT_LE(power, nodes[i].budget * (1.0 + rel_tol)) << "node " << i;
  }
}

TEST(P4Solver, SymmetricPathConverges) {
  const P4Result r = solve_p4(paper_nodes(), Mode::kGroupput, 0.5);
  EXPECT_TRUE(r.converged);
  expect_budget_respected(paper_nodes(), r, 1e-6);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_LT(r.throughput, 0.08);  // strictly below the oracle at σ > 0
}

TEST(P4Solver, StrongDualityAtOptimum) {
  // D(η*) equals the (P4) optimum (objective includes the entropy term).
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const P4Result r = solve_p4(paper_nodes(), mode, 0.5);
    EXPECT_NEAR(r.objective, r.dual, 1e-6 * std::abs(r.dual) + 1e-8);
  }
}

TEST(P4Solver, AcceleratedMatchesSymmetricOnHomogeneous) {
  const auto nodes = paper_nodes();
  const P4Result a = solve_p4(ExactGibbs(nodes, Mode::kGroupput, 0.5));
  const P4Result s = solve_p4(nodes, Mode::kGroupput, 0.5);
  ASSERT_TRUE(a.converged);
  EXPECT_NEAR(a.throughput, s.throughput, 1e-5);
  EXPECT_NEAR(a.eta[0], s.eta[0], 1e-4 * s.eta[0] + 1e-8);
}

TEST(P4Solver, Algorithm1MatchesAccelerated) {
  // The paper's Algorithm 1 (δ_k = δ_0/k) on a small instance. The 1/k decay
  // converges slowly, so we compare multipliers (the throughput is steeply
  // sensitive to η near the optimum).
  const auto nodes = paper_nodes(3);
  // δ_0 = 1e-5 is scaled to the µW unit system.
  const P4Result a = algorithm1(ExactGibbs(nodes, Mode::kGroupput, 0.5),
                                /*max_iterations=*/100000,
                                /*tolerance=*/1e-6, /*delta0=*/1e-5);
  const P4Result b = solve_p4(nodes, Mode::kGroupput, 0.5);
  EXPECT_NEAR(a.eta[0], b.eta[0], 0.05 * b.eta[0]);
  EXPECT_NEAR(a.throughput, b.throughput, 0.3 * b.throughput);
}

TEST(P4Solver, ThroughputIncreasesAsSigmaDecreases) {
  double prev = 0.0;
  for (const double sigma : {1.0, 0.5, 0.25, 0.1}) {
    const double t = solve_p4(paper_nodes(), Mode::kGroupput, sigma).throughput;
    EXPECT_GT(t, prev) << "sigma=" << sigma;
    prev = t;
  }
}

TEST(P4Solver, ConvergesToOracleAsSigmaVanishes) {
  // Theorem 1 (deterministic part): T^σ -> T* as σ -> 0.
  const auto nodes = paper_nodes();
  const double oracle_t = oracle::groupput(nodes).throughput;
  const double t_small = solve_p4(nodes, Mode::kGroupput, 0.02).throughput;
  EXPECT_GT(t_small / oracle_t, 0.9);
  const double t_tiny = solve_p4(nodes, Mode::kGroupput, 0.005).throughput;
  EXPECT_GT(t_tiny / oracle_t, 0.97);
}

TEST(P4Solver, AnyputConvergesToOracleAsSigmaVanishes) {
  const auto nodes = paper_nodes();
  const double oracle_t = oracle::anyput(nodes).throughput;
  const double t = solve_p4(nodes, Mode::kAnyput, 0.01).throughput;
  EXPECT_GT(t / oracle_t, 0.93);
}

TEST(P4Solver, NeverExceedsOracle) {
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const auto nodes = model::sample_heterogeneous(5, 200.0, rng);
    for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
      const double t_sigma = solve_p4(nodes, mode, 0.3).throughput;
      const double t_star = oracle::solve(nodes, mode).throughput;
      EXPECT_LE(t_sigma, t_star + 1e-7);
    }
  }
}

TEST(P4Solver, HeterogeneousBudgetsRespected) {
  util::Rng rng(22);
  for (int trial = 0; trial < 8; ++trial) {
    const auto nodes = model::sample_heterogeneous(5, 150.0, rng);
    const P4Result r = solve_p4(nodes, Mode::kGroupput, 0.25);
    EXPECT_TRUE(r.converged);
    expect_budget_respected(nodes, r, 1e-5);
  }
}

TEST(P4Solver, PaperFigure3Ratios) {
  // §VII-C headline: at L = X = 500 µW the groupput ratio is ~6x Panda at
  // σ = 0.5 and ~17x at σ = 0.25, i.e. ratios ≈ 0.14 and ≈ 0.43.
  const auto nodes = paper_nodes();
  const double t_star = oracle::groupput(nodes).throughput;
  const double r_05 = solve_p4(nodes, Mode::kGroupput, 0.5).throughput / t_star;
  const double r_025 =
      solve_p4(nodes, Mode::kGroupput, 0.25).throughput / t_star;
  EXPECT_NEAR(r_05, 0.143, 0.03);
  EXPECT_NEAR(r_025, 0.428, 0.05);
  EXPECT_GT(r_025 / r_05, 2.0);
}

TEST(P4Solver, ThroughputRatioPeaksNearSymmetricPower) {
  // Fig. 3 shape: the ratio T^σ/T* improves as X/L -> 1.
  const double rho = 10.0;
  auto ratio_at = [&](double x_over_l) {
    const double x = 1000.0 * x_over_l / (1.0 + x_over_l);
    const double l = 1000.0 - x;
    const auto nodes = model::homogeneous(5, rho, l, x);
    return solve_p4(nodes, Mode::kGroupput, 0.5).throughput /
           oracle::groupput(nodes).throughput;
  };
  const double at_1 = ratio_at(1.0);
  EXPECT_GT(at_1, ratio_at(1.0 / 9.0));
  EXPECT_GT(at_1, ratio_at(9.0));
}

TEST(P4Solver, AnyputRatioDegradesForExpensiveTransmit) {
  // §VII-C: anyput degrades with large X/L.
  auto ratio_at = [&](double x_over_l) {
    const double x = 1000.0 * x_over_l / (1.0 + x_over_l);
    const double l = 1000.0 - x;
    const auto nodes = model::homogeneous(5, 10.0, l, x);
    return solve_p4(nodes, Mode::kAnyput, 0.25).throughput /
           oracle::anyput(nodes).throughput;
  };
  EXPECT_GT(ratio_at(1.0), ratio_at(9.0));
}

TEST(P4Solver, RejectsBadInputs) {
  EXPECT_THROW(solve_p4(model::homogeneous(1, 1, 1, 1), Mode::kGroupput, 0.5),
               std::invalid_argument);
  EXPECT_THROW(solve_p4(paper_nodes(), Mode::kGroupput, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------- golden --

/// How a golden row is solved: solve_p4 (the accelerated method on these
/// heterogeneous networks) or the reference Algorithm 1 above.
enum class Method { kSolveP4, kAlgorithm1 };

// solve_p4 on three sampled N = 5 networks (h = 50, 170, 250 drawn in that
// order from Rng(2016)), both modes, σ ∈ {0.25, 0.5}, plus one Algorithm 1
// run that exhausts its iteration budget. Every double is pinned as a
// hex-float literal, so the values prove that the line search's reuse of
// each accepted candidate's evaluation leaves the iterates, the iteration
// counts and the results bit-identical to evaluating every η afresh (the
// table was captured from that implementation).
struct Golden {
  double h;
  Mode mode;
  double sigma;
  Method method;
  std::array<double, 5> eta, alpha, beta;
  double throughput, objective, dual;
  std::size_t iterations;
  bool converged;
};

const Golden kGolden[] = {
    {50, Mode::kGroupput, 0.25, Method::kSolveP4,
     {0x1.70c65f2cc78c6p-9, 0x1.49f51c6337b62p-9, 0x1.2ffcbe301d9b3p-9,
      0x1.d95fa2416b9fp-9, 0x1.ee3ce805b9f19p-10},
     {0x1.89c6adbd7c3cdp-6, 0x1.8e9a8c4aa9c45p-6, 0x1.439aa296e1f5ep-5,
      0x1.4caed4c662deap-8, 0x1.74323fe55191ap-5},
     {0x1.30005893ada1bp-6, 0x1.3fad821527879p-6, 0x1.59a8189a5319bp-6,
      0x1.db24444724a7ep-9, 0x1.904c47aad4512p-5},
     0x1.afe85249a4db1p-4, 0x1.53fd7f8aa21a8p-2, 0x1.53fd7fab0e9f3p-2,
     119, true},
    {50, Mode::kGroupput, 0.5, Method::kSolveP4,
     {0x1.27754af8435fep-8, 0x1.0851996924ed2p-8, 0x1.e720a9518024dp-9,
      0x1.897e41926c1e1p-8, 0x1.994841654464bp-9},
     {0x1.659e8d07f8c28p-6, 0x1.6b44a01216207p-6, 0x1.21c0fe493d90cp-5,
      0x1.269a9280fc8e6p-8, 0x1.6811905e02f3dp-5},
     {0x1.54f971fef5d62p-6, 0x1.6407adcbdf55dp-6, 0x1.9a0e3ba1e2044p-6,
      0x1.146100e9725e9p-8, 0x1.9d3ec880c2dc9p-5},
     0x1.a03d4c7ebf2c8p-5, 0x1.2b98e03aed734p-1, 0x1.2b98e0315795p-1,
     126, true},
    {50, Mode::kAnyput, 0.25, Method::kSolveP4,
     {0x1.56c561c287932p-9, 0x1.32f29519c8cf3p-9, 0x1.1e1105ff76ba4p-9,
      0x1.b6b33d805965cp-9, 0x1.e00d99d5847c6p-10},
     {0x1.5a0ef9ec397afp-6, 0x1.5e857b875cb8ap-6, 0x1.2550a2e82f989p-5,
      0x1.1994be1a37e24p-8, 0x1.54951b08b9197p-5},
     {0x1.60cbd631b02f2p-6, 0x1.7124b364d4fap-6, 0x1.9347dbcc30316p-6,
      0x1.21a6a77621393p-8, 0x1.b20c5cd37c171p-5},
     0x1.508ac613e5c9ap-4, 0x1.4a698c5d062d6p-2, 0x1.4a698c4b9f288p-2,
     103, true},
    {50, Mode::kAnyput, 0.5, Method::kSolveP4,
     {0x1.2244c6c3d7f15p-8, 0x1.03b76d9b08defp-8, 0x1.df9a14e1a6f58p-9,
      0x1.82644e1040b1fp-8, 0x1.94805ba93a97cp-9},
     {0x1.5c834440ac1bcp-6, 0x1.6225dfdb1a652p-6, 0x1.1bb9d9fcaa83dp-5,
      0x1.1c024fb5b3bd5p-8, 0x1.62a94ca0314aep-5},
     {0x1.5e495c7ed3fb5p-6, 0x1.6d6999530e015p-6, 0x1.a58603e6fa73cp-6,
      0x1.1f2d2f74ce7fdp-8, 0x1.a304987050708p-5},
     0x1.5fb24336adf6bp-5, 0x1.2a07b4b7349d9p-1, 0x1.2a07b4bb26e5ap-1,
     184, true},
    {170, Mode::kGroupput, 0.25, Method::kSolveP4,
     {0x1.64032abecb99ap-8, 0x1.ea5a722202829p-11, 0x1.0b6614ecc144fp-8,
      0x1.f860507c85bccp-9, 0x1.1a8670a9009ebp-8},
     {0x1.787d30c2ddea7p-9, 0x1.770d3091fc1aap-4, 0x1.215ee9d074235p-12,
      0x1.ed3bba8e7a19ap-7, 0x1.d3a0f611834aap-9},
     {0x1.1f523ecf389e4p-12, 0x1.9b27828d85518p-4, 0x1.06912cb6adb2dp-9,
      0x1.a78c661d8b2b3p-11, 0x1.d1053fb4c386fp-14},
     0x1.5c281d8402b0ap-6, 0x1.a1d7cd5c53506p-3, 0x1.a1d7cd7d0c1dcp-3,
     1037, true},
    {170, Mode::kGroupput, 0.5, Method::kSolveP4,
     {0x1.26e2e28e21aa2p-7, 0x1.dcd5e910b5932p-10, 0x1.bcfddd4f12dbdp-8,
      0x1.8e7111e81798bp-8, 0x1.d058d331f9338p-8},
     {0x1.670f1b390c1f3p-9, 0x1.89089ad04ebd8p-4, 0x1.8b5a182054f8dp-12,
      0x1.d303445df0025p-7, 0x1.c434a785c4ad6p-9},
     {0x1.89ca75846a4afp-12, 0x1.89abdd98085c8p-4, 0x1.ec5b856e172c9p-10,
      0x1.6008bb458c4f7p-10, 0x1.9093e6aee356dp-13},
     0x1.641a3492ebdf2p-7, 0x1.90e0c757b5d1ap-2, 0x1.90e0c778ab7cbp-2,
     987, true},
    {170, Mode::kAnyput, 0.25, Method::kSolveP4,
     {0x1.5cf8cd4f5cc32p-8, 0x1.eb39cfd098d4fp-11, 0x1.065e338fe9137p-8,
      0x1.f30e16450d706p-9, 0x1.14c892f69c1b8p-8},
     {0x1.758ae17261f1p-9, 0x1.75849e9f621fep-4, 0x1.27eb201f6d328p-12,
      0x1.eb726a2d182fdp-7, 0x1.d1a27f22f389p-9},
     {0x1.3151e093d06f4p-12, 0x1.9ca52f0f0191ep-4, 0x1.058df97d222a5p-9,
      0x1.baa8f50421ca2p-11, 0x1.fc7a7613c8df8p-14},
     0x1.5505c66b25a51p-6, 0x1.a13398cff55bcp-3, 0x1.a13398f42f359p-3,
     1004, true},
    {170, Mode::kAnyput, 0.5, Method::kSolveP4,
     {0x1.25507bd3f2baap-7, 0x1.dcbcf83e12b74p-10, 0x1.bab2e53b87096p-8,
      0x1.8d479a6c7ff4dp-8, 0x1.cdcaa7e053edap-8},
     {0x1.663cf35e01262p-9, 0x1.88faa12b96041p-4, 0x1.8d856f2ce473ap-12,
      0x1.d2698cf516e04p-7, 0x1.c37f7c873755bp-9},
     {0x1.8ece2d7aff25ep-12, 0x1.89b973dde4d5dp-4, 0x1.ebafc596179adp-10,
      0x1.633eff19d7405p-10, 0x1.984a1d3cacc99p-13},
     0x1.5867ed964951fp-7, 0x1.90bbfe592d848p-2, 0x1.90bbfe7eb470ep-2,
     950, true},
    {250, Mode::kGroupput, 0.25, Method::kSolveP4,
     {0x1.173ac278cbb3cp-8, 0x1.40993e2c487c7p-8, 0x1.d7d8eb485df37p-8,
      0x1.07f5cdf9df3ffp-8, 0x1.aa9bfe0c8e7ap-11},
     {0x1.b66f27858c1efp-12, 0x1.5a3abe64672cfp-5, 0x1.0c43b27eb736p-10,
      0x1.0bf65d1a25f2p-10, 0x1.b6ddf1cbae314p-4},
     {0x1.44b7e2760783fp-5, 0x1.9cb95be3a39bdp-10, 0x1.bf2d5f5b6c8bdp-13,
      0x1.f39881c81222p-15, 0x1.5354003928921p-3},
     0x1.3852c04ca5a9ep-4, 0x1.5332670c2df32p-2, 0x1.5332672e60002p-2,
     4031, true},
    {250, Mode::kGroupput, 0.5, Method::kSolveP4,
     {0x1.9babb27448b69p-8, 0x1.d59070595d902p-8, 0x1.8a1b8963244a7p-7,
      0x1.b6f3af91669fdp-8, 0x1.877177c585a8ep-10},
     {0x1.417a04ccca315p-10, 0x1.3fcfa600e2a0dp-5, 0x1.e8558a5ffe87ap-11,
      0x1.f965bcb335eap-11, 0x1.ae3ee2520e87cp-4},
     {0x1.3753912803615p-5, 0x1.eea44b1ca5881p-9, 0x1.3821d4080cfe9p-12,
      0x1.c13fc9b88b9c9p-14, 0x1.5936335859ef8p-3},
     0x1.7e82f707dbd83p-5, 0x1.32c77c1d28456p-1, 0x1.32c77c30db9c8p-1,
     3945, true},
    {250, Mode::kAnyput, 0.25, Method::kSolveP4,
     {0x1.0cfc28c87107p-8, 0x1.37037ebaf4862p-8, 0x1.c78d682cbb166p-8,
      0x1.fc617e69317d9p-9, 0x1.ad1e3f10634d1p-11},
     {0x1.ff8ca8dbf9d12p-12, 0x1.55b30988dad5ap-5, 0x1.0123dd184dd07p-10,
      0x1.06c4b28a9e1f2p-10, 0x1.accda7d04c8fcp-4},
     {0x1.43901bb2217a2p-5, 0x1.ff9709fbf7dddp-10, 0x1.0876c826f7e92p-12,
      0x1.3dab1a3ab90c2p-14, 0x1.5a322dc8f0d4bp-3},
     0x1.2d9a872c9efc3p-4, 0x1.511d3e64921a4p-2, 0x1.511d3e86fd326p-2,
     4100, true},
    {250, Mode::kAnyput, 0.5, Method::kSolveP4,
     {0x1.9644660de85c4p-8, 0x1.d0896a34e0fbfp-8, 0x1.85036383a0df8p-7,
      0x1.b0b60fc161b9cp-8, 0x1.867affdf700cep-10},
     {0x1.496dfe836e479p-10, 0x1.3d13929793c25p-5, 0x1.ddddf7ef93c71p-11,
      0x1.f3458df4e58c6p-11, 0x1.ab442c13ecd8ap-4},
     {0x1.36d2e043b0e79p-5, 0x1.063dcc21bf69fp-8, 0x1.4b5cbedb28b2p-12,
      0x1.e945915b28bd9p-14, 0x1.5b3eb5c824449p-3},
     0x1.6ac22dbdde97dp-5, 0x1.3231b16c7b42dp-1, 0x1.3231b181d4abcp-1,
     3893, true},
    {170, Mode::kGroupput, 0.5, Method::kAlgorithm1,
     {0x1.7b08365ddd301p-8, 0x1.fab738ebedd84p-10, 0x1.7561ca73d710bp-8,
      0x1.563f1de34d606p-8, 0x1.5ed1076fe0571p-8},
     {0x1.b1b158a2bd8a4p-6, 0x1.70bbd7dc4ca8dp-4, 0x1.908e4b82fb132p-10,
      0x1.d2ec289a30307p-6, 0x1.07f9aaa3608cbp-6},
     {0x1.efee374f2b91cp-8, 0x1.997f672a44effp-4, 0x1.9930e5aa64b04p-8,
      0x1.f85a60ce9e3afp-9, 0x1.e6acb69716d1bp-10},
     0x1.5b0f59c02fb81p-5, 0x1.21507a5a57f55p-1, 0x1.a53f9ac5b0934p-2,
     20000, false},
};

model::NodeSet golden_network(double h) {
  util::Rng rng(2016);
  for (const double drawn : {50.0, 170.0, 250.0}) {
    model::NodeSet nodes = model::sample_heterogeneous(5, drawn, rng);
    if (drawn == h) return nodes;
  }
  throw std::invalid_argument("no golden network for this h");
}

/// Solves a golden row's network on `gibbs`, built for that row.
P4Result solve_golden(const Golden& g, const ExactGibbs& gibbs) {
  if (g.method == Method::kAlgorithm1)
    return algorithm1(gibbs, /*max_iterations=*/20000, /*tolerance=*/1e-6,
                      /*delta0=*/1e-5);
  return solve_p4(gibbs);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field of `r` equals `want`'s bit for bit.
void expect_bits(const P4Result& want, const P4Result& r,
                 const std::string& label) {
  ASSERT_EQ(r.eta.size(), want.eta.size()) << label;
  for (std::size_t i = 0; i < want.eta.size(); ++i) {
    EXPECT_EQ(bits(r.eta[i]), bits(want.eta[i])) << label << " eta " << i;
    EXPECT_EQ(bits(r.alpha[i]), bits(want.alpha[i])) << label << " alpha " << i;
    EXPECT_EQ(bits(r.beta[i]), bits(want.beta[i])) << label << " beta " << i;
  }
  EXPECT_EQ(bits(r.throughput), bits(want.throughput)) << label;
  EXPECT_EQ(bits(r.objective), bits(want.objective)) << label;
  EXPECT_EQ(bits(r.dual), bits(want.dual)) << label;
  EXPECT_EQ(r.iterations, want.iterations) << label;
  EXPECT_EQ(r.converged, want.converged) << label;
}

P4Result as_result(const Golden& g) {
  P4Result r;
  r.eta.assign(g.eta.begin(), g.eta.end());
  r.alpha.assign(g.alpha.begin(), g.alpha.end());
  r.beta.assign(g.beta.begin(), g.beta.end());
  r.throughput = g.throughput;
  r.objective = g.objective;
  r.dual = g.dual;
  r.iterations = g.iterations;
  r.converged = g.converged;
  return r;
}

std::string golden_label(const Golden& g) {
  return "h=" + std::to_string(g.h) + " " + model::to_string(g.mode) +
         " sigma=" + std::to_string(g.sigma) +
         (g.method == Method::kAlgorithm1 ? " algorithm1" : "");
}

TEST(P4Solver, GoldenHeterogeneousSolvesAreBitExact) {
  for (const Golden& g : kGolden) {
    const P4Result r =
        g.method == Method::kAlgorithm1
            ? solve_golden(g, ExactGibbs(golden_network(g.h), g.mode, g.sigma))
            : solve_p4(golden_network(g.h), g.mode, g.sigma);
    expect_bits(as_result(g), r, golden_label(g));
  }
}

// ----------------------------------------------------------- concurrency --

// One const ExactGibbs per golden case, shared by 4 executor threads that
// solve it at once: the 4 copies of a case are adjacent indices, which the
// executor's shared claim cursor hands out together. ExactGibbs keeps no
// mutable state, so every solve must equal the one-thread solve bit for
// bit; under ThreadSanitizer this test is also the data-race guard.
TEST(P4Solver, SharedExactGibbsSolvesConcurrentlyBitExact) {
  constexpr std::size_t kThreads = 4;
  std::vector<ExactGibbs> built;
  for (const Golden& g : kGolden)
    built.emplace_back(golden_network(g.h), g.mode, g.sigma);
  const std::vector<ExactGibbs>& instances = built;

  std::vector<P4Result> serial;
  for (std::size_t c = 0; c < instances.size(); ++c) {
    serial.push_back(solve_golden(kGolden[c], instances[c]));
    expect_bits(as_result(kGolden[c]), serial.back(),
                golden_label(kGolden[c]));
  }

  std::vector<P4Result> concurrent(instances.size() * kThreads);
  exec::Executor executor(kThreads - 1);
  executor.parallel_for(
      concurrent.size(),
      [&](std::size_t task) {
        const std::size_t c = task / kThreads;
        concurrent[task] = solve_golden(kGolden[c], instances[c]);
      },
      kThreads);
  for (std::size_t task = 0; task < concurrent.size(); ++task)
    expect_bits(serial[task / kThreads], concurrent[task],
                golden_label(kGolden[task / kThreads]) + " task " +
                    std::to_string(task));
}

// Property sweep over (N, σ): budgets respected, duality gap closed,
// throughput within (0, T*].
class P4Sweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(P4Sweep, Invariants) {
  const auto [n, sigma] = GetParam();
  const auto nodes = paper_nodes(n);
  const P4Result r = solve_p4(nodes, Mode::kGroupput, sigma);
  EXPECT_TRUE(r.converged);
  expect_budget_respected(nodes, r, 1e-6);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_LE(r.throughput, oracle::groupput(nodes).throughput + 1e-9);
  EXPECT_NEAR(r.objective, r.dual, 1e-5 * std::abs(r.dual) + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    GridOfNAndSigma, P4Sweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{10}),
                       ::testing::Values(0.1, 0.25, 0.5, 1.0)));

}  // namespace
