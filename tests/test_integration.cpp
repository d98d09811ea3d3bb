// Cross-module integration tests: the end-to-end relationships the paper's
// evaluation rests on — oracle >= T^σ >= baselines at the operating points,
// the Lemma 1 schedule realizes the LP value, the 6x-17x headline holds, and
// the whole pipeline is reproducible from seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/birthday.h"
#include "baselines/panda.h"
#include "baselines/searchlight.h"
#include "econcast/simulation.h"
#include "gibbs/burstiness.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "oracle/nonclique_oracle.h"
#include "oracle/periodic_schedule.h"
#include "util/random.h"

namespace {

using namespace econcast;
using model::Mode;

model::NodeSet paper_nodes(std::size_t n = 5) {
  return model::homogeneous(n, 10.0, 500.0, 500.0);
}

TEST(EndToEnd, ThroughputOrderingAtPaperOperatingPoint) {
  // T* >= T^{0.25} >= T^{0.5} >= Panda ~ Birthday at N=5, ρ=10µW, L=X=500µW.
  const auto nodes = paper_nodes();
  const double t_star = oracle::groupput(nodes).throughput;
  const double t_025 = gibbs::solve_p4(nodes, Mode::kGroupput, 0.25).throughput;
  const double t_05 = gibbs::solve_p4(nodes, Mode::kGroupput, 0.5).throughput;
  const double t_panda = baselines::optimize_panda(5, 10.0, 500.0, 500.0).throughput;
  const double t_bday =
      baselines::optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput)
          .throughput;
  EXPECT_GT(t_star, t_025);
  EXPECT_GT(t_025, t_05);
  EXPECT_GT(t_05, t_panda);
  EXPECT_GT(t_05, t_bday);
}

TEST(EndToEnd, PaperHeadlineSixToSeventeenX) {
  // §I / §VII-C: EconCast outperforms prior art by 6x-17x under realistic
  // assumptions (vs Panda at σ = 0.5 and σ = 0.25).
  const auto nodes = paper_nodes();
  const double t_panda =
      baselines::optimize_panda(5, 10.0, 500.0, 500.0).throughput;
  const double gain_05 =
      gibbs::solve_p4(nodes, Mode::kGroupput, 0.5).throughput / t_panda;
  const double gain_025 =
      gibbs::solve_p4(nodes, Mode::kGroupput, 0.25).throughput / t_panda;
  EXPECT_NEAR(gain_05, 6.0, 1.5);
  EXPECT_NEAR(gain_025, 17.0, 3.5);
}

TEST(EndToEnd, ScheduleRealizesOracleThroughput) {
  // Lemma 1 chain: LP -> periodic schedule -> verified groupput ~= T*.
  util::Rng rng(6);
  const auto nodes = model::sample_heterogeneous(5, 100.0, rng);
  const auto sol = oracle::groupput(nodes);
  const auto sched = oracle::build_periodic_schedule(nodes, sol, 5000);
  const auto check = oracle::verify_schedule(nodes, sched);
  ASSERT_TRUE(check.ok());
  EXPECT_NEAR(check.groupput, sol.throughput, 5.0 / 5000.0 + 1e-9);
}

TEST(EndToEnd, SimulationNeverBeatsOracle) {
  const auto nodes = paper_nodes();
  proto::SimConfig cfg;
  cfg.sigma = 0.25;
  cfg.duration = 2e6;
  cfg.warmup = 5e5;
  cfg.seed = 2;
  proto::Simulation sim(nodes, model::Topology::clique(5), cfg);
  const auto r = sim.run();
  EXPECT_LE(r.groupput, oracle::groupput(nodes).throughput * 1.05);
}

TEST(EndToEnd, SimulatedBurstsTrackAnalyticAcrossSigma) {
  // Fig. 4 cross-validation at the σ values the paper simulates.
  const auto nodes = paper_nodes();
  for (const double sigma : {0.5, 0.35}) {
    const double analytic =
        gibbs::average_burst_length(nodes, Mode::kGroupput, sigma);
    const auto p4 = gibbs::solve_p4(nodes, Mode::kGroupput, sigma);
    proto::SimConfig cfg;
    cfg.sigma = sigma;
    cfg.duration = 4e6;
    cfg.warmup = 2e5;
    cfg.seed = 8;
    cfg.adapt_multiplier = false;
    cfg.eta_init = p4.eta;
    proto::Simulation sim(nodes, model::Topology::clique(5), cfg);
    const auto r = sim.run();
    EXPECT_NEAR(r.burst_lengths.mean(), analytic, 0.25 * analytic)
        << "sigma=" << sigma;
  }
}

TEST(EndToEnd, GridSimulationStaysWithinOracleBounds) {
  const std::size_t k = 4;
  const auto nodes = paper_nodes(k * k);
  const auto topo = model::Topology::grid(k, k);
  const auto bounds = oracle::nonclique_groupput(nodes, topo);
  ASSERT_TRUE(bounds.tight(1e-6));  // paper's Fig. 6 observation
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = 2e6;
  cfg.warmup = 1e6;
  cfg.seed = 9;
  proto::Simulation sim(nodes, topo, cfg);
  const auto r = sim.run();
  EXPECT_LT(r.groupput, bounds.upper.throughput);
  EXPECT_GT(r.groupput, 0.0);
}

TEST(EndToEnd, SearchlightWorstCaseDominatesEconCastP99) {
  // Fig. 5(a): the 99th-percentile EconCast latency stays below
  // Searchlight's 125 s pairwise worst case (times in packet-ms).
  const auto nodes = paper_nodes(10);
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = 6e6;  // 6000 s at 1 ms packets
  cfg.warmup = 1e6;
  cfg.seed = 10;
  proto::Simulation sim(nodes, model::Topology::clique(10), cfg);
  auto r = sim.run();
  ASSERT_GT(r.latencies.count(), 100u);
  const double p99_seconds = r.latencies.percentile(0.99) * 1e-3;
  baselines::SearchlightConfig sc;
  sc.budget = 10.0;
  sc.listen_power = 500.0;
  const double worst = baselines::analyze_searchlight(sc).worst_latency_seconds;
  EXPECT_LT(p99_seconds, worst);
}

TEST(EndToEnd, HeterogeneousPipelineAgreesAcrossSolvers) {
  // Fig. 2 pipeline: sample -> oracle LP -> P4 (accelerated) -> ratio in
  // (0, 1]; Algorithm 1 agrees with the accelerated solver.
  util::Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const auto nodes = model::sample_heterogeneous(4, 150.0, rng);
    for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
      const double t_star = oracle::solve(nodes, mode).throughput;
      const auto p4 = gibbs::solve_p4(nodes, mode, 0.25);
      ASSERT_TRUE(p4.converged);
      const double ratio = p4.throughput / t_star;
      EXPECT_GT(ratio, 0.0);
      EXPECT_LE(ratio, 1.0 + 1e-9);
    }
  }
}

TEST(EndToEnd, AnyputRatioExceedsGroupputRatioWhenHomogeneous) {
  // §VII-B: for homogeneous networks the anyput ratio is slightly higher
  // (existence is easier to detect than counts).
  const auto nodes = paper_nodes();
  const double rg = gibbs::solve_p4(nodes, Mode::kGroupput, 0.25).throughput /
                    oracle::groupput(nodes).throughput;
  const double ra = gibbs::solve_p4(nodes, Mode::kAnyput, 0.25).throughput /
                    oracle::anyput(nodes).throughput;
  EXPECT_GT(ra, rg);
}

TEST(DetailedBalance, RateLawsReverseAgainstGibbsWeights) {
  // Appendix C, cases 1-4: for every protocol transition w -> w' the rates
  // of eq. (18) satisfy π_w r(w,w') = π_w' r(w',w) against the Gibbs law
  // (19). This ties econcast::RateController to gibbs::ExactGibbs with no
  // simulation in between. Checked for both variants and both modes on
  // every state of a 4-node clique.
  const double sigma = 0.37;
  const double eta = 0.0042;
  const double kL = 520.0, kX = 480.0;
  const auto nodes = model::homogeneous(4, 10.0, kL, kX);
  const std::vector<double> eta_vec(4, eta);

  for (const model::Mode mode : {model::Mode::kGroupput, model::Mode::kAnyput}) {
    for (const proto::Variant variant :
         {proto::Variant::kCapture, proto::Variant::kNonCapture}) {
      const gibbs::ExactGibbs g(nodes, mode, sigma);
      gibbs::GibbsEvaluation eval;
      g.evaluate(eta_vec, eval);
      auto log_weight = [&](const model::NetState& w) {
        return eval.log_weight[model::state_index(4, w)];
      };
      const proto::RateController rc(kL, kX, sigma, variant, mode);
      model::for_each_state(4, [&](const model::NetState& w) {
        const double logw = log_weight(w);
        for (int i = 0; i < 4; ++i) {
          const std::uint64_t bit = 1ULL << i;
          // Case 1/2: sleep <-> listen, only with an idle medium.
          if (!w.has_transmitter() && !(w.listeners & bit)) {
            const model::NetState w2{-1, w.listeners | bit};
            const double fwd = rc.sleep_to_listen(eta, true);
            const double bwd = rc.listen_to_sleep(true);
            EXPECT_NEAR(logw + std::log(fwd),
                        log_weight(w2) + std::log(bwd), 1e-9);
          }
          // Case 3/4: listen <-> transmit.
          if (!w.has_transmitter() && (w.listeners & bit)) {
            const model::NetState w2{i, w.listeners & ~bit};
            // ĉ seen in the transmit state: the remaining listeners.
            const double c_after =
                static_cast<double>(w2.listener_count());
            const double fwd = rc.listen_to_transmit(eta, c_after, true);
            const double bwd = rc.transmit_to_listen(c_after);
            EXPECT_NEAR(logw + std::log(fwd),
                        log_weight(w2) + std::log(bwd), 1e-9)
                << model::to_string(mode) << " " << proto::to_string(variant);
          }
        }
      });
    }
  }
}

TEST(EndToEnd, ThroughputUnitsConsistentAcrossScales) {
  // The µW-scale and mW-scale systems produce identical dimensionless
  // results throughout the stack (oracle, P4, Panda).
  const auto micro = model::homogeneous(5, 10.0, 500.0, 500.0);
  const auto milli = model::homogeneous(5, 0.01, 0.5, 0.5);
  EXPECT_NEAR(oracle::groupput(micro).throughput,
              oracle::groupput(milli).throughput, 1e-9);
  EXPECT_NEAR(gibbs::solve_p4(micro, Mode::kGroupput, 0.5).throughput,
              gibbs::solve_p4(milli, Mode::kGroupput, 0.5).throughput, 1e-9);
  EXPECT_NEAR(baselines::optimize_panda(5, 10.0, 500.0, 500.0).throughput,
              baselines::optimize_panda(5, 0.01, 0.5, 0.5).throughput, 1e-6);
}

}  // namespace
