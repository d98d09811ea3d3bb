// Reproduces Fig. 6: grid topologies — the non-clique oracle groupput T*_nc
// (upper/lower LP bounds of §IV-C, which coincide for these grids) and the
// simulated EconCast groupput for σ ∈ {0.25, 0.5, 0.75}, N ∈ {4,...,100}.
// Collided (hidden-terminal) receptions are voided, as in the paper.
//
// Each grid size is one JSON sweep manifest whose topology is an explicit
// edge_list (the k×k grid spelled out as data — the schema form for the
// arbitrary graphs this figure family is about), executed through
// runner::SweepSession, so every point of the figure is re-runnable (and
// resumable) standalone via `econcast_sweep <manifest>`. The manifests keep
// the exact per-N config and seed (66 + N) of the old serial loop —
// reseeding is disabled so the embedded seeds are authoritative — which
// keeps the table bit-identical to the pre-manifest output.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "econcast/simulation.h"
#include "exec/executor.h"
#include "oracle/nonclique_oracle.h"
#include "runner/sweep_spec.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  const bench::Args args(argc, argv, {"--manifest-dir=", "--n256"});
  const long scale = args.knob(2);  // duration = scale * 1e6
  // --n256 appends a 16x16 grid row (N=256) — off by default so the standard
  // table stays byte-identical to earlier builds.
  const bool n256 = args.has("--n256");
  bench::banner("Figure 6", "grid topologies: oracle T*_nc and simulated T~ (rho=10uW)");

  std::vector<std::size_t> ks{2, 3, 4, 5, 6, 7, 8, 9, 10};
  if (n256) ks.push_back(16);
  const std::vector<double> sigmas{0.25, 0.5, 0.75};
  const std::string dir = bench::manifest_dir(args, "econcast-fig6");

  // One session per manifest, all sessions concurrent: each gets a private
  // executor sized to its σ cells, so the 27 simulations overlap across
  // cores like the old single 27-cell batch did (the process-wide shared
  // executor serializes batches, which would leave only one N in flight).
  // Per-session results stay deterministic regardless of this interleaving.
  std::vector<runner::BatchResult> runs(ks.size());
  std::vector<std::exception_ptr> errors(ks.size());
  // NOLINT-DETERMINISM(raw-thread): one thread per independent session;
  // each writes only its own runs[k_i] slot, printed in fixed k order.
  std::vector<std::thread> sessions;
  sessions.reserve(ks.size());
  for (std::size_t k_i = 0; k_i < ks.size(); ++k_i) {
    sessions.emplace_back([&, k_i] {
      try {
        const std::size_t k = ks[k_i];
        const std::size_t n = k * k;
        proto::SimConfig cfg;
        cfg.duration = 1e6 * static_cast<double>(scale);
        cfg.warmup = cfg.duration * 0.4;
        cfg.seed = 66 + n;
        cfg.energy_guard = true;  // adaptive start from eta = 0
        cfg.initial_energy = 5e5;
        const std::string name = "fig6-N" + std::to_string(n);
        const runner::SweepSpec sweep =
            runner::SweepSpec(name)
                .protocols({protocol::econcast_spec(cfg)})
                .node_counts({n})
                .sigmas(sigmas)
                .topology(n, model::Topology::grid(k, k).edges());
        runs[k_i] = bench::run_manifest_sweep(
            dir, name, sweep, /*base_seed=*/1, /*reseed=*/false,
            std::make_shared<exec::Executor>(sigmas.size()));
      } catch (...) {
        errors[k_i] = std::current_exception();
      }
    });
  }
  // NOLINT-DETERMINISM(raw-thread): joining the session threads above.
  for (std::thread& t : sessions) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  std::vector<protocol::SimResult> results;
  results.reserve(ks.size() * sigmas.size());
  for (const runner::BatchResult& run : runs)
    results.insert(results.end(), run.results.begin(), run.results.end());

  util::Table t({"N", "T*_nc", "bounds tight", "sim s=0.25", "sim s=0.5",
                 "sim s=0.75", "ratio s=0.25"});
  for (std::size_t k_i = 0; k_i < ks.size(); ++k_i) {
    const std::size_t k = ks[k_i];
    const std::size_t n = k * k;
    const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
    const auto topo = model::Topology::grid(k, k);
    const auto bounds = oracle::nonclique_groupput(nodes, topo);
    t.add_row();
    t.add_cell(static_cast<std::int64_t>(n));
    t.add_cell(bounds.lower.throughput, 4);
    t.add_cell(bounds.tight(1e-6) ? "yes" : "no");
    for (std::size_t s_i = 0; s_i < sigmas.size(); ++s_i)
      t.add_cell(results[k_i * sigmas.size() + s_i].groupput, 4);
    t.add_cell(results[k_i * sigmas.size()].groupput /
                   bounds.lower.throughput,
               3);
  }
  t.print(std::cout, "Fig. 6 — grids");
  std::printf(
      "\npaper: upper and lower bounds coincide for all grids (exact T*_nc);\n"
      "       EconCast reaches 14-22%% of T*_nc at sigma=0.25 and ~10%% at\n"
      "       sigma=0.5 as N grows.\n");
  return 0;
}
