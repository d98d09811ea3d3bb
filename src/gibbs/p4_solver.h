// Solvers for the entropy-regularized throughput problem (P4), §VI part (ii):
//
//   max_π  Σ_w π_w T_w  -  σ Σ_w π_w log π_w   s.t. power budgets (6)
//
// Strong duality holds; the dual is D(η) = σ log Z_η + η·ρ, minimized over
// η >= 0 (eq. (22) gives ∇D). Three methods:
//   * kAlgorithm1    — the paper's Algorithm 1: plain projected gradient with
//                      step δ_k = δ_0 / k (faithful reproduction).
//   * kAccelerated   — projected gradient with backtracking line search
//                      (default for heterogeneous networks).
//   * kAutomatic     — 1-D bisection via SymmetricGibbs when the network is
//                      homogeneous; kAccelerated otherwise.
// The achievable throughput at σ, T^σ = Σ_w π*_w T_w, is what the paper's
// evaluation reports (it approaches the oracle T* as σ → 0, Theorem 1).
#ifndef ECONCAST_GIBBS_P4_SOLVER_H
#define ECONCAST_GIBBS_P4_SOLVER_H

#include <cstddef>
#include <vector>

#include "model/node_params.h"
#include "model/state_space.h"

namespace econcast::gibbs {

enum class P4Method { kAutomatic, kAlgorithm1, kAccelerated };

struct P4Options {
  P4Method method = P4Method::kAutomatic;
  std::size_t max_iterations = 50000;
  /// Relative KKT tolerance: max_i |power_i - ρ_i| / ρ_i on active
  /// multipliers and max_i (power_i - ρ_i)+ / ρ_i overall.
  double tolerance = 1e-8;
  /// Algorithm 1 step scale: δ_k = delta0 / k.
  double delta0 = 1.0;
};

struct P4Result {
  std::vector<double> eta;    // optimal Lagrange multipliers η*
  std::vector<double> alpha;  // listen fraction per node at π*
  std::vector<double> beta;   // transmit fraction per node at π*
  double throughput = 0.0;    // T^σ = Σ_w π*_w T_w
  double objective = 0.0;     // T^σ + σ H(π*)  (the (P4) objective)
  double dual = 0.0;          // D(η*) — equals objective at optimality
  std::size_t iterations = 0;
  bool converged = false;
};

P4Result solve_p4(const model::NodeSet& nodes, model::Mode mode, double sigma,
                  const P4Options& options = {});

class ExactGibbs;

/// (P4) on an exact instance the caller built: kAlgorithm1, or the
/// accelerated method for the other two. The instance may be shared by
/// concurrent solves.
P4Result solve_p4(const ExactGibbs& gibbs, const P4Options& options = {});

}  // namespace econcast::gibbs

#endif  // ECONCAST_GIBBS_P4_SOLVER_H
