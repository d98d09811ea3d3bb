// Reproduces Fig. 2: sensitivity of the achievable-to-oracle throughput
// ratio T^σ/T* to network heterogeneity h, for groupput (a) and anyput (b).
// N = 5, σ ∈ {0.1, 0.25, 0.5}, h ∈ {10, 50, 100, 150, 200, 250}; each point
// averages random networks sampled by the §VII-B process (the paper uses
// 1000 samples; pass a positional argument to change the default).
//
// The whole figure is one declarative sweep with a "sampled" node-set axis:
// protocol 0 is the achievable T^σ ((P4) solver), protocol 1 the oracle T*,
// crossed over (mode, h, σ, replicate). The sweep is emitted as a JSON
// manifest and executed through runner::SweepSession, so the figure is
// re-runnable (and resumable) as data via `econcast_sweep <manifest>`.
//
// The sampled node-set generator seeds one network stream per h value
// (derive_seed(0xF162000, h)) and gives replicate r the r-th draw, so all
// (protocol, mode, σ) cells at a given (h, replicate) evaluate the identical
// sampled network — the seed version's paired-sampling design, which keeps
// the σ comparison free of independent-sampling noise — and the printed
// numbers are independent of both the thread count and the host's core
// count.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "runner/sweep_spec.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  const bench::Args args(argc, argv, {"--manifest-dir="});
  const long samples = args.knob(300);
  bench::banner("Figure 2", "T^sigma/T* vs heterogeneity h (N=5)");
  std::printf("samples per point: %ld (paper: 1000)\n\n", samples);

  const std::vector<double> h_values{10.0, 50.0, 100.0, 150.0, 200.0, 250.0};
  const std::vector<double> sigmas{0.1, 0.25, 0.5};
  const std::vector<model::Mode> modes{model::Mode::kGroupput,
                                       model::Mode::kAnyput};
  const std::string dir = bench::manifest_dir(args, "econcast-fig2");

  const runner::SweepSpec sweep =
      runner::SweepSpec("fig2")
          .protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                      protocol::oracle_spec(model::Mode::kGroupput)})
          .modes(modes)
          .sigmas(sigmas)
          .replicates(static_cast<std::size_t>(samples))
          .sampled_node_set(h_values, /*sample_seed=*/0xF162000);
  const runner::BatchResult run =
      bench::run_manifest_sweep(dir, "fig2", sweep, /*base_seed=*/1);

  const auto throughput = [](const protocol::SimResult& r, model::Mode mode) {
    return mode == model::Mode::kGroupput ? r.groupput : r.anyput;
  };

  for (std::size_t m = 0; m < modes.size(); ++m) {
    util::Table t({"h", "sigma", "mean T^s/T*", "95% CI"});
    for (std::size_t h_i = 0; h_i < h_values.size(); ++h_i) {
      for (std::size_t s_i = 0; s_i < sigmas.size(); ++s_i) {
        util::RunningStats ratio;
        for (std::size_t rep = 0; rep < static_cast<std::size_t>(samples);
             ++rep) {
          const double t_star = throughput(
              run.results[sweep.cell_index(1, m, 0, 0, h_i, s_i, rep)],
              modes[m]);
          if (t_star <= 0.0) continue;
          const double achievable = throughput(
              run.results[sweep.cell_index(0, m, 0, 0, h_i, s_i, rep)],
              modes[m]);
          ratio.add(achievable / t_star);
        }
        t.add_row();
        t.add_cell(h_values[h_i], 0);
        t.add_cell(sigmas[s_i], 2);
        t.add_cell(ratio.mean(), 4);
        t.add_cell(ratio.ci95_halfwidth(), 4);
      }
    }
    t.print(std::cout, std::string("Fig. 2 — ") + model::to_string(modes[m]));
    std::printf("\n");
  }
  std::printf(
      "paper: ratios increase as sigma decreases and approach 1 as sigma->0;\n"
      "       weak dependence on h; for homogeneous networks (h=10) the\n"
      "       anyput ratio is slightly above the groupput ratio.\n");
  return 0;
}
