#include "gibbs/burstiness.h"

#include <cmath>
#include <stdexcept>

#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "gibbs/symmetric.h"

namespace econcast::gibbs {

double average_burst_length(const model::NodeSet& nodes, model::Mode mode,
                            double sigma) {
  BurstSums sums;
  if (model::is_homogeneous(nodes)) {
    const P4Result p4 = solve_p4(nodes, mode, sigma);
    SymmetricGibbs gibbs(nodes.size(), nodes.front(), mode, sigma);
    sums = gibbs.burst_sums(p4.eta.front());
  } else {
    const ExactGibbs gibbs(nodes, mode, sigma);
    sums = gibbs.burst_sums(solve_p4(gibbs).eta);
  }
  return std::exp(sums.log_success_mass - sums.log_burst_rate);
}

double anyput_burst_closed_form(double sigma) {
  if (!(sigma > 0.0)) throw std::invalid_argument("sigma must be positive");
  return std::exp(1.0 / sigma);
}

}  // namespace econcast::gibbs
