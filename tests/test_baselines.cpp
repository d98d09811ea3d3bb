// Tests for the prior-art baselines: Birthday, Panda (model vs simulation),
// and Searchlight (incl. the paper's 125 s worst-case latency).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "baselines/birthday.h"
#include "baselines/panda.h"
#include "baselines/searchlight.h"
#include "oracle/clique_oracle.h"

namespace {

using namespace econcast;
using namespace econcast::baselines;
using model::Mode;

// ---------------------------------------------------------------- birthday --

TEST(Birthday, ClosedFormKnownValue) {
  // N=2: groupput = 2 p_x p_l (1-p_x)^0.
  EXPECT_NEAR(birthday_throughput(2, 0.1, 0.2, Mode::kGroupput), 0.04, 1e-12);
  // Anyput with N=2 equals groupput (one possible listener).
  EXPECT_NEAR(birthday_throughput(2, 0.1, 0.2, Mode::kAnyput),
              2.0 * 0.1 * 0.9 * (1.0 - (1.0 - 0.2 / 0.9)), 1e-12);
}

TEST(Birthday, SimulationMatchesClosedForm) {
  const std::uint64_t slots = 4000000;
  const BirthdaySimDetail d =
      simulate_birthday_detailed(5, 0.01, 0.01, slots, 9);
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const double analytic = birthday_throughput(5, 0.01, 0.01, mode);
    const double credit =
        mode == Mode::kGroupput ? d.groupput_credit : d.anyput_credit;
    const double sim = credit / static_cast<double>(slots);
    EXPECT_NEAR(sim, analytic, 0.05 * analytic + 1e-5)
        << model::to_string(mode);
  }
}

TEST(Birthday, OptimizerRespectsBudget) {
  const BirthdayDesign d =
      optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput);
  EXPECT_LE(d.p_listen * 500.0 + d.p_transmit * 500.0, 10.0 + 1e-9);
  EXPECT_GT(d.throughput, 0.0);
}

TEST(Birthday, OptimizerBeatsNaiveSplits) {
  const BirthdayDesign d =
      optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput);
  for (const double split : {0.1, 0.3, 0.7, 0.9}) {
    const double px = 0.02 * split;
    const double pl = 0.02 * (1.0 - split);
    EXPECT_GE(d.throughput,
              birthday_throughput(5, px, pl, Mode::kGroupput) - 1e-9);
  }
}

TEST(Birthday, PaperSettingFarBelowOracle) {
  // At the Fig. 3 operating point, Birthday reaches only a few percent of
  // the oracle groupput (the gap EconCast closes).
  const BirthdayDesign d =
      optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput);
  const double oracle_t =
      oracle::groupput(model::homogeneous(5, 10.0, 500.0, 500.0)).throughput;
  const double ratio = d.throughput / oracle_t;
  EXPECT_GT(ratio, 0.005);
  EXPECT_LT(ratio, 0.08);
}

TEST(Birthday, ZeroProbabilitiesGiveZeroThroughput) {
  EXPECT_DOUBLE_EQ(birthday_throughput(5, 0.0, 0.5, Mode::kGroupput), 0.0);
  EXPECT_DOUBLE_EQ(birthday_throughput(5, 0.5, 0.0, Mode::kGroupput), 0.0);
  EXPECT_DOUBLE_EQ(birthday_throughput(1, 0.5, 0.5, Mode::kGroupput), 0.0);
}

// ------------------------------------------------------------------- panda --

TEST(Panda, PowerModelMonotoneInWakeRate) {
  double prev = 0.0;
  for (const double lambda : {0.001, 0.005, 0.02, 0.1}) {
    const double p = panda_power(5, lambda, 1.0, 500.0, 500.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Panda, OptimizerSaturatesBudget) {
  const PandaDesign d = optimize_panda(5, 10.0, 500.0, 500.0);
  EXPECT_NEAR(d.power, 10.0, 0.05);
  EXPECT_GT(d.throughput, 0.0);
  EXPECT_GT(d.wake_rate, 0.0);
  EXPECT_GT(d.listen_window, 0.0);
}

TEST(Panda, SimulationValidatesAnalyticalModel) {
  const PandaDesign d = optimize_panda(5, 10.0, 500.0, 500.0);
  const double duration = 3e6;
  const PandaSimDetail sim =
      simulate_panda_detailed(5, d.wake_rate, d.listen_window, duration, 21);
  double energy = 0.0;
  for (std::size_t i = 0; i < 5; ++i)
    energy += sim.listen_time[i] * 500.0 + sim.transmit_time[i] * 500.0;
  const double groupput = static_cast<double>(sim.receptions) / duration;
  const double avg_power = energy / (5.0 * duration);
  // The renewal model is approximate; require agreement within 15%.
  EXPECT_NEAR(groupput, d.throughput, 0.15 * d.throughput);
  EXPECT_NEAR(avg_power, d.power, 0.15 * d.power);
}

TEST(Panda, PaperHeadlineGapVersusOracle) {
  // §VII-C: Panda lands at roughly 2-3% of the oracle groupput at the
  // symmetric-power operating point (enabling the 6x/17x claims).
  const PandaDesign d = optimize_panda(5, 10.0, 500.0, 500.0);
  const double oracle_t =
      oracle::groupput(model::homogeneous(5, 10.0, 500.0, 500.0)).throughput;
  const double ratio = d.throughput / oracle_t;
  EXPECT_GT(ratio, 0.01);
  EXPECT_LT(ratio, 0.06);
}

TEST(Panda, ThroughputImprovesWithBudget) {
  const double t1 = optimize_panda(5, 1.0, 67.08, 56.29).throughput;
  const double t5 = optimize_panda(5, 5.0, 67.08, 56.29).throughput;
  EXPECT_GT(t5, t1);
}

TEST(Panda, RejectsBadInputs) {
  EXPECT_THROW(optimize_panda(1, 10.0, 500.0, 500.0), std::invalid_argument);
  EXPECT_THROW(optimize_panda(5, 0.0, 500.0, 500.0), std::invalid_argument);
  EXPECT_THROW(simulate_panda_detailed(5, 0.0, 1.0, 1e4, 1),
               std::invalid_argument);
}

TEST(Panda, SimDeterministicPerSeed) {
  const PandaSimDetail a = simulate_panda_detailed(5, 0.01, 1.0, 1e5, 5);
  const PandaSimDetail b = simulate_panda_detailed(5, 0.01, 1.0, 1e5, 5);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.receptions, b.receptions);
  EXPECT_EQ(a.listen_time, b.listen_time);
  EXPECT_EQ(a.transmit_time, b.transmit_time);
}

// ------------------------------------------------------------- searchlight --

TEST(Searchlight, PaperPeriodAndDutyCycle) {
  SearchlightConfig cfg;  // defaults are the paper's setting
  const SearchlightResult r = analyze_searchlight(cfg);
  EXPECT_EQ(r.period_slots, 100);       // t = 2L/ρ
  EXPECT_NEAR(r.duty_cycle, 0.02, 1e-12);
}

TEST(Searchlight, PaperWorstCaseLatencyNear125s) {
  // Fig. 5(a) reference line: 125 s with slot 50 ms, beacon 1 ms.
  SearchlightConfig cfg;
  const SearchlightResult r = analyze_searchlight(cfg);
  EXPECT_NEAR(r.worst_latency_seconds, 125.0, 6.0);
  EXPECT_LT(r.mean_latency_seconds, r.worst_latency_seconds);
  EXPECT_GT(r.mean_latency_seconds, 20.0);
}

TEST(Searchlight, HigherBudgetShortensLatency) {
  SearchlightConfig lean;
  SearchlightConfig rich;
  rich.budget = 50e-6;
  const double worst_lean = analyze_searchlight(lean).worst_latency_seconds;
  const double worst_rich = analyze_searchlight(rich).worst_latency_seconds;
  EXPECT_LT(worst_rich, worst_lean);
}

TEST(Searchlight, GroupputUpperBoundScalesWithN) {
  SearchlightConfig cfg;
  const SearchlightResult r = analyze_searchlight(cfg);
  EXPECT_DOUBLE_EQ(r.groupput_upper_bound(5), 4.0 * r.pairwise_throughput);
  EXPECT_DOUBLE_EQ(r.groupput_upper_bound(1), 0.0);
}

TEST(Searchlight, FarBelowOracleAtPaperPoint) {
  SearchlightConfig cfg;
  cfg.budget = 10.0;  // µW-scale unit system
  cfg.listen_power = 500.0;
  const SearchlightResult r = analyze_searchlight(cfg);
  const double oracle_t =
      oracle::groupput(model::homogeneous(5, 10.0, 500.0, 500.0)).throughput;
  const double ratio = r.groupput_upper_bound(5) / oracle_t;
  EXPECT_GT(ratio, 0.003);
  EXPECT_LT(ratio, 0.10);
}

TEST(Searchlight, RejectsNonDutyCycledInputs) {
  SearchlightConfig cfg;
  cfg.budget = 1.0;
  cfg.listen_power = 0.5;  // budget above listen power: no duty cycling
  EXPECT_THROW(analyze_searchlight(cfg), std::invalid_argument);
}

}  // namespace
