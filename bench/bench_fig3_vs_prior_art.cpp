// Reproduces Fig. 3: throughput of EconCast normalized to the oracle as a
// function of the power-consumption ratio X/L (with L + X = 1 mW,
// ρ = 10 µW, N = 5), overlaid with the prior-art baselines on the groupput
// panel: Panda, Birthday, and the Searchlight upper bound.
//
// The whole figure is two declarative sweeps over the protocols —
// each cell (power point × protocol × σ) is one scenario. The sweeps are
// emitted as JSON manifests (fig3a/fig3b) and executed through
// runner::SweepSession, so the figure is re-runnable (and resumable) as data
// via `econcast_sweep <manifest>`. The analytic protocols are
// deterministic, so the table matches the old direct-call implementation
// value for value.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "protocol/protocol.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_spec.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  // The workload is fixed; the positional knob is accepted and ignored.
  const bench::Args args(argc, argv, {"--manifest-dir="});
  bench::banner("Figure 3", "T^sigma/T* vs X/L, with prior art (N=5, rho=10uW)");

  constexpr double kBudget = 10.0;    // µW
  constexpr double kTotal = 1000.0;   // L + X in µW
  const std::vector<double> ratios{1.0 / 9, 1.0 / 4, 3.0 / 7, 2.0 / 3, 1.0,
                                   3.0 / 2, 7.0 / 3, 4.0,     9.0};
  const std::vector<double> sigmas{0.1, 0.25, 0.5};
  const auto powers = runner::power_ratio_axis(ratios, kBudget, kTotal);
  const std::string dir = bench::manifest_dir(args, "econcast-fig3");

  // Panel (a): groupput, including baselines. Protocol axis order:
  // 0 = EconCast achievable (σ from the sigma axis), 1..3 = baselines
  // (σ-independent; their values are read at sigma index 0), 4 = oracle.
  const runner::SweepSpec sweep_a =
      runner::SweepSpec("fig3a")
          .protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                      protocol::panda_spec(), protocol::birthday_spec(),
                      protocol::searchlight_spec(),
                      protocol::oracle_spec(model::Mode::kGroupput)})
          .modes({model::Mode::kGroupput})
          .powers(powers)
          .sigmas(sigmas);
  const runner::BatchResult panel_a =
      bench::run_manifest_sweep(dir, "fig3a", sweep_a, /*base_seed=*/1);

  {
    util::Table t({"X/L", "s=0.1", "s=0.25", "s=0.5", "Panda", "Birthday",
                   "Searchlight"});
    for (std::size_t p = 0; p < powers.size(); ++p) {
      const double t_star =
          panel_a.results[sweep_a.cell_index(4, 0, 0, p, 0)].groupput;
      t.add_row();
      t.add_cell(ratios[p], 3);
      for (std::size_t s = 0; s < sigmas.size(); ++s)
        t.add_cell(
            panel_a.results[sweep_a.cell_index(0, 0, 0, p, 0, s)].groupput /
                t_star,
            4);
      for (std::size_t proto = 1; proto <= 3; ++proto)
        t.add_cell(
            panel_a.results[sweep_a.cell_index(proto, 0, 0, p, 0)].groupput /
                t_star,
            4);
    }
    t.print(std::cout, "Fig. 3(a) — groupput ratio T^s_g / T*_g");
  }
  std::printf("\n");

  // Panel (b): anyput — the achievable curve against the anyput oracle.
  const runner::SweepSpec sweep_b =
      runner::SweepSpec("fig3b")
          .protocols({protocol::p4_spec(model::Mode::kAnyput, 0.5),
                      protocol::oracle_spec(model::Mode::kAnyput)})
          .modes({model::Mode::kAnyput})
          .powers(powers)
          .sigmas(sigmas);
  const runner::BatchResult panel_b =
      bench::run_manifest_sweep(dir, "fig3b", sweep_b, /*base_seed=*/1);

  {
    util::Table t({"X/L", "s=0.1", "s=0.25", "s=0.5"});
    for (std::size_t p = 0; p < powers.size(); ++p) {
      const double t_star =
          panel_b.results[sweep_b.cell_index(1, 0, 0, p, 0)].anyput;
      t.add_row();
      t.add_cell(ratios[p], 3);
      for (std::size_t s = 0; s < sigmas.size(); ++s)
        t.add_cell(
            panel_b.results[sweep_b.cell_index(0, 0, 0, p, 0, s)].anyput /
                t_star,
            4);
    }
    t.print(std::cout, "Fig. 3(b) — anyput ratio T^s_a / T*_a");
  }

  // The headline claim, read straight from the panel (a) batch at the
  // X = L = 500 µW power point (ratio index 4).
  {
    constexpr std::size_t kSymmetric = 4;  // ratios[4] == 1.0
    const double t_star =
        panel_a.results[sweep_a.cell_index(4, 0, 0, kSymmetric, 0)].groupput;
    const double panda =
        panel_a.results[sweep_a.cell_index(1, 0, 0, kSymmetric, 0)].groupput;
    const double g05 =
        panel_a.results[sweep_a.cell_index(0, 0, 0, kSymmetric, 0, 2)]
            .groupput;
    const double g025 =
        panel_a.results[sweep_a.cell_index(0, 0, 0, kSymmetric, 0, 1)]
            .groupput;
    std::printf("\nheadline at X = L = 500uW: EconCast/Panda = %.1fx (s=0.5), "
                "%.1fx (s=0.25)   [oracle ratio %.3f/%.3f]\n",
                g05 / panda, g025 / panda, g05 / t_star, g025 / t_star);
    std::printf("paper: \"outperforms ... Panda by 6x and 17x with sigma=0.5 "
                "and sigma=0.25\"; ratio improves as X/L -> 1; anyput\n"
                "       degrades for large X/L.\n");
  }
  return 0;
}
