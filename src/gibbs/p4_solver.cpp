#include "gibbs/p4_solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "gibbs/exact.h"
#include "gibbs/symmetric.h"

namespace econcast::gibbs {

namespace {

/// Relative KKT tolerance: max_i |power_i - ρ_i| / ρ_i on active
/// multipliers and max_i (power_i - ρ_i)+ / ρ_i overall.
constexpr double kTolerance = 1e-8;
/// Iteration cap of the accelerated method.
constexpr std::size_t kMaxIterations = 50000;

// Relative KKT residual of the dual iterate: budget violations everywhere,
// complementary slackness where η_i is active.
double kkt_residual(const model::NodeSet& nodes,
                    const std::vector<double>& eta, const Marginals& m) {
  double res = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double power =
        m.alpha[i] * nodes[i].listen_power + m.beta[i] * nodes[i].transmit_power;
    const double rel = (power - nodes[i].budget) / nodes[i].budget;
    res = std::max(res, rel);                        // infeasibility
    if (eta[i] > 1e-14) res = std::max(res, std::abs(rel));  // slackness
  }
  return res;
}

// The result at the last iterate: `m` holds the marginals of `eval`, which
// the loop has already computed there.
P4Result finalize(const ExactGibbs& gibbs, GibbsEvaluation& eval,
                  const Marginals& m, std::size_t iters, bool converged) {
  P4Result out;
  out.dual = gibbs.dual_value(eval);
  out.eta = std::move(eval.eta);
  out.alpha = m.alpha;
  out.beta = m.beta;
  out.throughput = m.expected_throughput;
  out.objective = m.expected_throughput + gibbs.sigma() * m.entropy;
  out.iterations = iters;
  out.converged = converged;
  return out;
}

P4Result solve_accelerated(const ExactGibbs& gibbs) {
  const std::size_t n = gibbs.num_nodes();
  const model::NodeSet& nodes = gibbs.nodes();
  // One evaluation per η: the line search evaluates each candidate once,
  // and an accepted candidate's evaluation becomes the current one, whose
  // marginals the next iteration reads. The two buffers swap, never
  // reallocate.
  GibbsEvaluation current, candidate;
  gibbs.evaluate(std::vector<double>(n, 0.0), current);
  double dual = gibbs.dual_value(current);

  // Initial step: the dual curvature scales like max(L,X)^2 / σ.
  double worst_power = 0.0;
  for (const auto& p : nodes)
    worst_power = std::max({worst_power, p.listen_power, p.transmit_power});
  double t = gibbs.sigma() / (worst_power * worst_power *
                              static_cast<double>(n));

  candidate.eta.resize(n);
  std::vector<double> grad(n);
  for (std::size_t k = 1; k <= kMaxIterations; ++k) {
    const Marginals m = gibbs.marginals(current);
    if (kkt_residual(nodes, current.eta, m) < kTolerance)
      return finalize(gibbs, current, m, k, true);

    for (std::size_t i = 0; i < n; ++i)
      grad[i] = nodes[i].budget - (m.alpha[i] * nodes[i].listen_power +
                                   m.beta[i] * nodes[i].transmit_power);

    // Backtracking proximal-gradient step on the convex dual.
    bool accepted = false;
    for (int bt = 0; bt < 60 && !accepted; ++bt) {
      double step_sq = 0.0, step_dot_grad = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        candidate.eta[i] = std::max(0.0, current.eta[i] - t * grad[i]);
        const double d = candidate.eta[i] - current.eta[i];
        step_sq += d * d;
        step_dot_grad += d * grad[i];
      }
      if (step_sq == 0.0) return finalize(gibbs, current, m, k, true);
      gibbs.evaluate(candidate.eta, candidate);
      const double cand_dual = gibbs.dual_value(candidate);
      if (cand_dual <= dual + step_dot_grad + step_sq / (2.0 * t) + 1e-15) {
        std::swap(current, candidate);
        dual = cand_dual;
        t *= 1.3;  // optimistic growth for the next iteration
        accepted = true;
      } else {
        t *= 0.5;
      }
    }
    if (!accepted) return finalize(gibbs, current, m, k, false);
  }
  return finalize(gibbs, current, gibbs.marginals(current),
                  kMaxIterations, false);
}

P4Result solve_symmetric(const model::NodeSet& nodes, model::Mode mode,
                         double sigma) {
  SymmetricGibbs gibbs(nodes.size(), nodes.front(), mode, sigma);
  const double eta = gibbs.solve_optimal_eta(kTolerance * 1e-2);
  const Marginals m = gibbs.marginals(eta);
  P4Result out;
  out.eta.assign(nodes.size(), eta);
  out.alpha = m.alpha;
  out.beta = m.beta;
  out.throughput = m.expected_throughput;
  out.objective = m.expected_throughput + sigma * m.entropy;
  out.dual = gibbs.dual_value(eta);
  out.iterations = 1;
  out.converged = true;
  return out;
}

}  // namespace

P4Result solve_p4(const model::NodeSet& nodes, model::Mode mode,
                  double sigma) {
  model::validate(nodes);
  if (nodes.size() < 2)
    throw std::invalid_argument("P4 needs at least two nodes");
  if (model::is_homogeneous(nodes)) return solve_symmetric(nodes, mode, sigma);
  return solve_p4(ExactGibbs(nodes, mode, sigma));
}

P4Result solve_p4(const ExactGibbs& gibbs) {
  if (gibbs.num_nodes() < 2)
    throw std::invalid_argument("P4 needs at least two nodes");
  return solve_accelerated(gibbs);
}

}  // namespace econcast::gibbs
