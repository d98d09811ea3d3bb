// Reproduces Table II: the 4-node heterogeneous example that motivates the
// protocol design (§V-A) — optimal awake fractions and transmit-when-awake
// splits under (P1)/(P2), plus the homogeneous ρ = 0.1 mW variant discussed
// in the text (25% transmit-when-awake).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "oracle/clique_oracle.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  // The workload is fixed; the positional knob is accepted and ignored.
  (void)bench::Args(argc, argv);
  bench::banner("Table II", "optimal time partitioning, 4 heterogeneous nodes");

  model::NodeSet nodes{{0.005, 1.0, 1.0},
                       {0.010, 1.0, 1.0},
                       {0.050, 1.0, 1.0},
                       {0.100, 1.0, 1.0}};
  const auto sol = oracle::groupput(nodes);

  util::Table t({"node", "budget mW", "awake %", "tx-when-awake %"});
  for (std::size_t i = 0; i < 4; ++i) {
    const double awake = sol.alpha[i] + sol.beta[i];
    t.add_row();
    t.add_cell(static_cast<std::int64_t>(i + 1));
    t.add_cell(nodes[i].budget, 3);
    t.add_cell(100.0 * awake, 2);
    t.add_cell(awake > 0 ? 100.0 * sol.beta[i] / awake : 0.0, 1);
  }
  t.print(std::cout, "measured (one optimal vertex of (P2))");
  std::printf("measured oracle groupput: %.4f\n\n", sol.throughput);

  std::printf("paper: awake %% = (0.5, 1.0, 5.0, 10.0); "
              "tx-when-awake %% = (20.0, 22, 53.6, 65.7)\n");
  std::printf("note:  (P2) has multiple optimal vertices; the paper's row is\n"
              "       another optimum of the same LP — its useful-listen total\n"
              "       equals the certified objective %.4f (node 4's split\n"
              "       includes dead listening beyond the others' transmit\n"
              "       time, which costs budget but no throughput).\n\n",
              sol.throughput);

  // Homogeneous variant from §V-A: all budgets 0.1 mW.
  const auto homog = oracle::homogeneous_groupput_closed_form(4, 0.1, 1.0, 1.0);
  std::printf("homogeneous variant (all ρ = 0.1 mW): alpha* = %.4f, "
              "beta* = %.4f, tx-when-awake = %.1f%%\n",
              homog.alpha[0], homog.beta[0],
              100.0 * homog.beta[0] / (homog.alpha[0] + homog.beta[0]));
  std::printf("paper: alpha* = 0.075, beta* = 0.025, 25%% transmit when awake\n");
  return 0;
}
