// Reproduces Table III: experimental (testbed-emulated) EconCast-C
// throughput vs the analytically computed Panda throughput, both normalized
// to the achievable T^σ_g, with σ = 0.25 and (N, ρ) ∈ {5,10} x {1,5} mW.
//
// One SweepSpec crosses (N, ρ) with the three protocols — the firmware
// emulation ("econcast-testbed"), the achievable bound ("econcast-p4") and
// the analytical Panda optimum ("panda"). The sweep is emitted as a JSON
// manifest and executed through runner::SweepSession, so the multi-hour
// testbed cells run in parallel, checkpoint per cell, and can be resumed
// standalone via `econcast_sweep table3.manifest.json`.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "protocol/protocol.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_spec.h"
#include "testbed/ez430.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  const bench::Args args(argc, argv, {"--manifest-dir="});
  const long hours = args.knob(12);
  bench::banner("Table III", "testbed EconCast-C vs analytical Panda (sigma=0.25)");

  const testbed::Ez430Constants hw;  // mW units throughout this table
  protocol::TestbedParams testbed;
  testbed.sigma = 0.25;
  testbed.duration_ms = static_cast<double>(hours) * 3600e3;
  testbed.warmup_ms = testbed.duration_ms / 3.0;

  const std::size_t kTestbed = 0, kP4 = 1, kPanda = 2;
  const std::vector<std::size_t> node_counts{5, 10};
  const std::vector<double> budgets_mw{1.0, 5.0};
  std::vector<runner::PowerPoint> powers;
  for (const double rho : budgets_mw)
    powers.push_back({rho, hw.listen_power_mw, hw.transmit_power_mw});
  const runner::SweepSpec sweep =
      runner::SweepSpec("table3")
          .protocols({protocol::testbed_spec(testbed),
                      protocol::p4_spec(model::Mode::kGroupput, 0.25),
                      protocol::panda_spec()})
          .node_counts(node_counts)
          .powers(powers)
          .sigmas({0.25});
  const std::string dir = bench::manifest_dir(args, "econcast-table3");
  const runner::BatchResult run =
      bench::run_manifest_sweep(dir, "table3", sweep, /*base_seed=*/300);

  util::Table t({"(N, rho mW)", "T~/T^s %", "Panda/T^s %", "T~/Panda"});
  for (std::size_t n_i = 0; n_i < node_counts.size(); ++n_i) {
    for (std::size_t p_i = 0; p_i < budgets_mw.size(); ++p_i) {
      const double measured =
          run.results[sweep.cell_index(kTestbed, 0, n_i, p_i)].groupput;
      const double t_sigma =
          run.results[sweep.cell_index(kP4, 0, n_i, p_i)].groupput;
      const double panda =
          run.results[sweep.cell_index(kPanda, 0, n_i, p_i)].groupput;
      t.add_row();
      // Built up with += (not nested operator+) to sidestep a GCC 12
      // -Wrestrict false positive on the char* + std::string&& insert path.
      std::string cell = "(";
      cell += std::to_string(node_counts[n_i]);
      cell += ", ";
      cell += util::format_double(budgets_mw[p_i], 0);
      cell += ")";
      t.add_cell(cell);
      t.add_cell(100.0 * measured / t_sigma, 2);
      t.add_cell(100.0 * panda / t_sigma, 2);
      t.add_cell(measured / panda, 2);
    }
  }
  t.print(std::cout, "Table III");
  std::printf(
      "\npaper: T~/T^s = (66.78, 77.96, 74.84, 80.53)%%;\n"
      "       Panda/T^s = (6.24, 9.64, 19.35, 35.63)%%;\n"
      "       T~/Panda = (10.76, 8.09, 3.87, 2.26) for (N,rho) =\n"
      "       (5,1), (10,1), (5,5), (10,5).\n");
  return 0;
}
