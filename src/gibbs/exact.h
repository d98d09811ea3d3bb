// Exact Gibbs distribution (19) over the full collision-free state space W
// for an arbitrary heterogeneous clique. Cost is O(|W| * N) per evaluation
// with |W| = (N+2) 2^(N-1); practical for N <= ~16, which covers every
// heterogeneous experiment in the paper (N = 5, 10).
//
//   π^η_w  ∝  exp[ (T_w - Σ_{i: w_i=l} η_i L_i - Σ_{i: w_i=x} η_i X_i) / σ ]
//
// One pass over W per η: `evaluate` fills every state's log-weight and
// log Z_η into a GibbsEvaluation the caller owns, and `marginals`,
// `dual_value`, `burst_sums` and `distribution` read that evaluation
// without recomputing a log-weight. The η-taking overloads evaluate and
// then consume. The class holds no mutable state, so one instance may be
// shared by any number of threads, each with its own evaluations.
#ifndef ECONCAST_GIBBS_EXACT_H
#define ECONCAST_GIBBS_EXACT_H

#include <cstdint>
#include <vector>

#include "gibbs/marginals.h"
#include "model/node_params.h"
#include "model/state_space.h"

namespace econcast::gibbs {

/// π^η at one multiplier vector η, as ExactGibbs::evaluate leaves it.
struct GibbsEvaluation {
  std::vector<double> eta;         // the multipliers evaluated at
  std::vector<double> log_weight;  // per state, in model::for_each_state order
  double log_partition = 0.0;      // log Z_η
};

class ExactGibbs {
 public:
  /// σ is the paper's temperature parameter (> 0).
  ExactGibbs(model::NodeSet nodes, model::Mode mode, double sigma);

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  double sigma() const noexcept { return sigma_; }
  model::Mode mode() const noexcept { return mode_; }
  const model::NodeSet& nodes() const noexcept { return nodes_; }

  /// Fills `out` with every state's log-weight and log Z at η (one pass
  /// over W). `eta` may be `out.eta` itself; `out`'s buffers are reused.
  void evaluate(const std::vector<double>& eta, GibbsEvaluation& out) const;

  /// All moments of π^η.
  Marginals marginals(const GibbsEvaluation& eval) const;
  Marginals marginals(const std::vector<double>& eta) const;

  /// Burst-state sums for eq. (34)/(35).
  BurstSums burst_sums(const GibbsEvaluation& eval) const;
  BurstSums burst_sums(const std::vector<double>& eta) const;

  /// Full probability vector indexed by model::state_index (tests / small N).
  std::vector<double> distribution(const GibbsEvaluation& eval) const;
  std::vector<double> distribution(const std::vector<double>& eta) const;

  /// Dual function D(η) = σ log Z_η + Σ_i η_i ρ_i (minimized over η >= 0 to
  /// solve (P4); see §VI part (ii)).
  double dual_value(const GibbsEvaluation& eval) const;
  double dual_value(const std::vector<double>& eta) const;

  /// ∇D: grad_i = ρ_i - (α_i L_i + β_i X_i), eq. (22).
  std::vector<double> dual_gradient(const std::vector<double>& eta) const;

 private:
  /// One state of W; `states_` lists them in model::for_each_state order,
  /// which is also model::state_index order.
  struct State {
    std::uint32_t listeners;  // bitmask (N <= 16)
    int transmitter;          // -1: nobody transmits
    double throughput;        // T_w
  };

  void check_eta(const std::vector<double>& eta) const;
  void check_evaluation(const GibbsEvaluation& eval) const;
  GibbsEvaluation evaluated(const std::vector<double>& eta) const;

  model::NodeSet nodes_;
  model::Mode mode_;
  double sigma_;
  std::vector<State> states_;
};

}  // namespace econcast::gibbs

#endif  // ECONCAST_GIBBS_EXACT_H
