#include "gibbs/exact.h"

#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/logsumexp.h"

namespace econcast::gibbs {

using model::NetState;

namespace {
constexpr std::size_t kMaxNodes = 16;  // listener masks fit State's uint32_t
}  // namespace

ExactGibbs::ExactGibbs(model::NodeSet nodes, model::Mode mode, double sigma)
    : nodes_(std::move(nodes)), mode_(mode), sigma_(sigma) {
  model::validate(nodes_);
  if (!(sigma > 0.0)) throw std::invalid_argument("sigma must be positive");
  if (nodes_.size() > kMaxNodes)
    throw std::invalid_argument(
        "ExactGibbs supports N <= 16; use SymmetricGibbs for large "
        "homogeneous networks");
  states_.reserve(model::state_space_size(nodes_.size()));
  model::for_each_state(nodes_.size(), [&](const NetState& s) {
    states_.push_back(State{static_cast<std::uint32_t>(s.listeners),
                            s.transmitter,
                            model::state_throughput(s, mode_)});
  });
}

void ExactGibbs::check_eta(const std::vector<double>& eta) const {
  if (eta.size() != nodes_.size())
    throw std::invalid_argument("eta size mismatch");
}

void ExactGibbs::check_evaluation(const GibbsEvaluation& eval) const {
  if (eval.eta.size() != nodes_.size() ||
      eval.log_weight.size() != states_.size())
    throw std::invalid_argument("evaluation is not over this state space");
}

void ExactGibbs::evaluate(const std::vector<double>& eta,
                          GibbsEvaluation& out) const {
  check_eta(eta);
  // η_i L_i and η_i X_i once per η: the same IEEE products a per-state
  // loop would form, so precomputing them moves no bit.
  std::array<double, kMaxNodes> listen_cost{}, transmit_cost{};
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    listen_cost[i] = eta[i] * nodes_[i].listen_power;
    transmit_cost[i] = eta[i] * nodes_[i].transmit_power;
  }
  if (&eta != &out.eta) out.eta = eta;
  out.log_weight.resize(states_.size());
  util::LogSumExp log_z;
  for (std::size_t k = 0; k < states_.size(); ++k) {
    // (T_w - the listeners' costs in ascending node order - the
    // transmitter's cost) / σ; that order of operations is part of every
    // result's bytes.
    const State& s = states_[k];
    double exponent = s.throughput;
    for (std::uint32_t mask = s.listeners; mask; mask &= mask - 1)
      exponent -=
          listen_cost[static_cast<std::size_t>(std::countr_zero(mask))];
    if (s.transmitter >= 0)
      exponent -= transmit_cost[static_cast<std::size_t>(s.transmitter)];
    const double lw = exponent / sigma_;
    out.log_weight[k] = lw;
    log_z.add(lw);
  }
  out.log_partition = log_z.value();
}

GibbsEvaluation ExactGibbs::evaluated(const std::vector<double>& eta) const {
  GibbsEvaluation eval;
  evaluate(eta, eval);
  return eval;
}

Marginals ExactGibbs::marginals(const GibbsEvaluation& eval) const {
  check_evaluation(eval);
  const double lz = eval.log_partition;
  Marginals out;
  out.log_partition = lz;
  out.alpha.assign(nodes_.size(), 0.0);
  out.beta.assign(nodes_.size(), 0.0);
  double expected_t = 0.0;
  double expected_exponent = 0.0;  // E[log-weight] for the entropy
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const double lw = eval.log_weight[k];
    const double p = std::exp(lw - lz);
    if (p == 0.0) continue;
    const State& s = states_[k];
    for (std::uint32_t mask = s.listeners; mask; mask &= mask - 1)
      out.alpha[static_cast<std::size_t>(std::countr_zero(mask))] += p;
    if (s.transmitter >= 0)
      out.beta[static_cast<std::size_t>(s.transmitter)] += p;
    expected_t += p * s.throughput;
    expected_exponent += p * lw;
  }
  out.expected_throughput = expected_t;
  out.entropy = lz - expected_exponent;
  return out;
}

Marginals ExactGibbs::marginals(const std::vector<double>& eta) const {
  return marginals(evaluated(eta));
}

BurstSums ExactGibbs::burst_sums(const GibbsEvaluation& eval) const {
  check_evaluation(eval);
  util::LogSumExp mass, rate;
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const State& s = states_[k];
    if (s.transmitter < 0 || s.listeners == 0) continue;  // not in W'
    const double lw = eval.log_weight[k];
    mass.add(lw);
    // On W', T_w is c_w (groupput) or γ_w = 1 (anyput), and bursts end at
    // rate exp(-T_w/σ).
    rate.add(lw - s.throughput / sigma_);
  }
  const double lz = eval.log_partition;
  return BurstSums{mass.value() - lz, rate.value() - lz};
}

BurstSums ExactGibbs::burst_sums(const std::vector<double>& eta) const {
  return burst_sums(evaluated(eta));
}

std::vector<double> ExactGibbs::distribution(
    const GibbsEvaluation& eval) const {
  check_evaluation(eval);
  std::vector<double> pi(states_.size());
  for (std::size_t k = 0; k < states_.size(); ++k)
    pi[k] = std::exp(eval.log_weight[k] - eval.log_partition);
  return pi;
}

std::vector<double> ExactGibbs::distribution(
    const std::vector<double>& eta) const {
  return distribution(evaluated(eta));
}

double ExactGibbs::dual_value(const GibbsEvaluation& eval) const {
  check_evaluation(eval);
  double dual = sigma_ * eval.log_partition;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    dual += eval.eta[i] * nodes_[i].budget;
  return dual;
}

double ExactGibbs::dual_value(const std::vector<double>& eta) const {
  return dual_value(evaluated(eta));
}

std::vector<double> ExactGibbs::dual_gradient(
    const std::vector<double>& eta) const {
  const Marginals m = marginals(eta);
  std::vector<double> grad(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    grad[i] = nodes_[i].budget - (m.alpha[i] * nodes_[i].listen_power +
                                  m.beta[i] * nodes_[i].transmit_power);
  return grad;
}

}  // namespace econcast::gibbs
