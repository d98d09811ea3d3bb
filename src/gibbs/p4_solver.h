// Solvers for the entropy-regularized throughput problem (P4), §VI part (ii):
//
//   max_π  Σ_w π_w T_w  -  σ Σ_w π_w log π_w   s.t. power budgets (6)
//
// Strong duality holds; the dual is D(η) = σ log Z_η + η·ρ, minimized over
// η >= 0 (eq. (22) gives ∇D). A homogeneous network has a symmetric optimum,
// found by 1-D bisection on SymmetricGibbs to 1e-10 in η; any other network
// runs the accelerated method, projected gradient with backtracking line
// search on the exact Gibbs distribution, until the relative KKT residual
// is below 1e-8, for at most 50,000 iterations. The paper's plain-gradient Algorithm 1 (δ_k = δ_0 / k)
// is kept in tests/test_p4.cpp as a reference.
// The achievable throughput at σ, T^σ = Σ_w π*_w T_w, is what the paper's
// evaluation reports (it approaches the oracle T* as σ → 0, Theorem 1).
#ifndef ECONCAST_GIBBS_P4_SOLVER_H
#define ECONCAST_GIBBS_P4_SOLVER_H

#include <cstddef>
#include <vector>

#include "model/node_params.h"
#include "model/state_space.h"

namespace econcast::gibbs {

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

/// Bisection when `nodes` are homogeneous, the accelerated method otherwise.
P4Result solve_p4(const model::NodeSet& nodes, model::Mode mode, double sigma);

class ExactGibbs;

/// The accelerated method on an exact instance the caller built, whatever
/// its nodes. The instance may be shared by concurrent solves.
P4Result solve_p4(const ExactGibbs& gibbs);

}  // namespace econcast::gibbs

#endif  // ECONCAST_GIBBS_P4_SOLVER_H
