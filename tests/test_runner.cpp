// Tests for the parallel scenario runner: the determinism contract (thread
// count must not affect any output bit, including for batches that mix
// protocols), index-order completions on one thread and longest-first
// starts on two, batch validation (topology/node-count mismatch, unknown
// protocol), edge cases (empty batch, single scenario), seed derivation,
// and exception propagation out of the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "runner/cost_model.h"
#include "runner/scenario_runner.h"

namespace {

using namespace econcast;
using runner::BatchResult;
using runner::RunnerOptions;
using runner::Scenario;
using runner::ScenarioRunner;

Scenario small_scenario(std::size_t n, model::Mode mode, double sigma) {
  proto::SimConfig cfg;
  cfg.mode = mode;
  cfg.sigma = sigma;
  cfg.duration = 2e4;
  cfg.warmup = 1e3;
  return runner::econcast_scenario("clique",
                                   model::homogeneous(n, 10.0, 500.0, 500.0),
                                   model::Topology::clique(n), cfg);
}

std::vector<Scenario> mixed_batch() {
  std::vector<Scenario> batch;
  batch.push_back(small_scenario(4, model::Mode::kGroupput, 0.5));
  batch.push_back(small_scenario(5, model::Mode::kAnyput, 0.5));
  batch.push_back(small_scenario(3, model::Mode::kGroupput, 0.25));
  batch.push_back(small_scenario(6, model::Mode::kAnyput, 0.75));
  proto::SimConfig grid_cfg;
  grid_cfg.sigma = 0.5;
  grid_cfg.duration = 2e4;
  batch.push_back(runner::econcast_scenario(
      "grid", model::homogeneous(6, 10.0, 500.0, 500.0),
      model::Topology::grid(2, 3), grid_cfg));
  batch.push_back(small_scenario(4, model::Mode::kAnyput, 0.4));
  return batch;
}

/// A batch mixing seeded and analytic protocols: EconCast (capture and
/// non-capture), the testbed firmware at the eZ430's mW powers, and the
/// (P4) analytic value.
std::vector<Scenario> mixed_protocol_batch() {
  std::vector<Scenario> batch;
  const auto nodes = model::homogeneous(5, 10.0, 500.0, 500.0);
  const auto topo = model::Topology::clique(5);

  batch.push_back(small_scenario(5, model::Mode::kGroupput, 0.5));

  protocol::TestbedParams testbed;
  testbed.duration_ms = 10.0 * 60.0 * 1000.0;
  testbed.warmup_ms = 60.0 * 1000.0;
  batch.push_back(Scenario{"testbed", model::homogeneous(5, 1.0, 52.2, 55.4),
                           topo, protocol::testbed_spec(testbed)});

  proto::SimConfig non_capture;
  non_capture.variant = proto::Variant::kNonCapture;
  non_capture.duration = 2e4;
  non_capture.warmup = 1e3;
  batch.push_back(Scenario{"econcast-nc", nodes, topo,
                           protocol::econcast_spec(non_capture)});

  batch.push_back(Scenario{"p4", nodes, topo,
                           protocol::p4_spec(model::Mode::kGroupput, 0.5)});
  batch.push_back(small_scenario(4, model::Mode::kAnyput, 0.5));
  return batch;
}

void expect_bit_identical(const protocol::SimResult& a,
                          const protocol::SimResult& b) {
  EXPECT_EQ(a.groupput, b.groupput);
  EXPECT_EQ(a.anyput, b.anyput);
  EXPECT_EQ(a.measured_window, b.measured_window);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.avg_power, b.avg_power);
  EXPECT_EQ(a.listen_fraction, b.listen_fraction);
  EXPECT_EQ(a.transmit_fraction, b.transmit_fraction);
  EXPECT_EQ(a.burst_lengths.count(), b.burst_lengths.count());
  EXPECT_EQ(a.burst_lengths.mean(), b.burst_lengths.mean());
  EXPECT_EQ(a.latencies.samples(), b.latencies.samples());
  EXPECT_EQ(a.extras, b.extras);
}

void expect_summary_bit_identical(const runner::BatchSummary& a,
                                  const runner::BatchSummary& b) {
  EXPECT_EQ(a.groupput.mean(), b.groupput.mean());
  EXPECT_EQ(a.groupput.stddev(), b.groupput.stddev());
  EXPECT_EQ(a.anyput.mean(), b.anyput.mean());
  EXPECT_EQ(a.burst_length.mean(), b.burst_length.mean());
  EXPECT_EQ(a.node_power.mean(), b.node_power.mean());
  EXPECT_EQ(a.packets_received.sum(), b.packets_received.sum());
}

// ------------------------------------------------------------ derive_seed --

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(runner::derive_seed(7, 0), runner::derive_seed(7, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(runner::derive_seed(7, i));
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(runner::derive_seed(7, 0), runner::derive_seed(8, 0));
}

// ------------------------------------------------------------- edge cases --

TEST(ScenarioRunner, EmptyBatch) {
  ScenarioRunner r(RunnerOptions{4, 1, true});
  const BatchResult out = r.run({});
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.summary.groupput.count(), 0u);
  EXPECT_EQ(out.summary.groupput.mean(), 0.0);
}

TEST(ScenarioRunner, SingleScenarioMatchesDirectRun) {
  const std::vector<Scenario> batch{small_scenario(4, model::Mode::kGroupput, 0.5)};
  ScenarioRunner r(RunnerOptions{4, 99, true});
  const BatchResult out = r.run(batch);
  ASSERT_EQ(out.results.size(), 1u);

  proto::SimConfig config =
      std::get<protocol::EconCastParams>(batch[0].protocol.params).config;
  config.seed = runner::derive_seed(99, 0);
  proto::Simulation direct(batch[0].nodes, batch[0].topology, config);
  const proto::SimResult expected = direct.run();
  EXPECT_EQ(out.results[0].groupput, expected.groupput);
  EXPECT_EQ(out.results[0].anyput, expected.anyput);
  EXPECT_EQ(out.results[0].avg_power, expected.avg_power);
  EXPECT_EQ(out.results[0].packets_received, expected.packets_received);
  EXPECT_EQ(out.results[0].latencies.samples(), expected.latencies.samples());
  EXPECT_EQ(out.summary.groupput.count(), 1u);
  EXPECT_EQ(out.summary.groupput.mean(), out.results[0].groupput);
}

TEST(ScenarioRunner, ReseedOffUsesScenarioSeed) {
  std::vector<Scenario> batch{small_scenario(4, model::Mode::kGroupput, 0.5)};
  // Mutating config.seed alone must be honored (effective_seed makes the
  // embedded config authoritative, like a direct proto::Simulation run) —
  // the spec-level seed is deliberately left stale.
  auto& params = std::get<protocol::EconCastParams>(batch[0].protocol.params);
  params.config.seed = 12345;
  ASSERT_NE(batch[0].protocol.seed, 12345u);
  ScenarioRunner r(RunnerOptions{2, 99, /*reseed=*/false});
  const BatchResult out = r.run(batch);

  proto::Simulation direct(batch[0].nodes, batch[0].topology, params.config);
  EXPECT_EQ(out.results[0].groupput, direct.run().groupput);
}

// ------------------------------------------------------- batch validation --

TEST(ScenarioRunner, RejectsTopologyNodeCountMismatch) {
  std::vector<Scenario> batch = mixed_batch();
  batch[2].topology = model::Topology::clique(5);  // nodes.size() == 3
  ScenarioRunner r(RunnerOptions{2, 1, true});
  try {
    r.run(batch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("index 2"), std::string::npos) << message;
    EXPECT_NE(message.find("3 nodes"), std::string::npos) << message;
    EXPECT_NE(message.find("size 5"), std::string::npos) << message;
  }
}

TEST(ScenarioRunner, RejectsUnknownProtocol) {
  std::vector<Scenario> batch = mixed_batch();
  batch[1].protocol.name = "carrier-pigeon";
  RunnerOptions options{2, 1, true};
  std::size_t cells_run = 0;
  options.on_scenario_done = [&](const runner::ScenarioProgress&) {
    ++cells_run;
  };
  ScenarioRunner r(options);
  try {
    r.run(batch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("index 1"), std::string::npos) << message;
    EXPECT_NE(message.find("carrier-pigeon"), std::string::npos) << message;
  }
  EXPECT_EQ(cells_run, 0u);  // rejected before any cell ran
}

TEST(ScenarioRunner, AttributesWorkerSideRequirementFailures) {
  // A size-matched non-clique slips past upfront validation; Panda rejects
  // it when protocol::run executes the cell inside a worker — the rethrown
  // error must still name the scenario and its batch index.
  std::vector<Scenario> batch = mixed_batch();
  batch.push_back(Scenario{"panda-on-a-line",
                           model::homogeneous(4, 10.0, 500.0, 500.0),
                           model::Topology::line(4), protocol::panda_spec()});
  ScenarioRunner r(RunnerOptions{2, 1, true});
  try {
    r.run(batch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("panda-on-a-line"), std::string::npos) << message;
    EXPECT_NE(message.find("index 6"), std::string::npos) << message;
    EXPECT_NE(message.find("clique"), std::string::npos) << message;
  }
}

TEST(ScenarioRunner, RejectsWrongParamsTypeUpfrontWithIndex) {
  std::vector<Scenario> batch = mixed_batch();
  batch[4].protocol.name = "birthday";  // params stay EconCastParams
  RunnerOptions options{2, 1, true};
  std::size_t cells_run = 0;
  options.on_scenario_done = [&](const runner::ScenarioProgress&) {
    ++cells_run;
  };
  ScenarioRunner r(options);
  try {
    r.run(batch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("index 4"), std::string::npos) << message;
    EXPECT_NE(message.find("birthday"), std::string::npos) << message;
  }
  EXPECT_EQ(cells_run, 0u);  // rejected before any cell ran
}

// ------------------------------------------------------------ determinism --

TEST(ScenarioRunner, ThreadCountDoesNotChangeResults) {
  const std::vector<Scenario> batch = mixed_batch();
  const BatchResult serial = ScenarioRunner(RunnerOptions{1, 7, true}).run(batch);
  const BatchResult parallel4 = ScenarioRunner(RunnerOptions{4, 7, true}).run(batch);

  ASSERT_EQ(serial.results.size(), batch.size());
  ASSERT_EQ(parallel4.results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial.results[i], parallel4.results[i]);
  }
  // Aggregates are accumulated in index order, so they must match to the bit.
  expect_summary_bit_identical(serial.summary, parallel4.summary);
}

TEST(ScenarioRunner, MixedProtocolBatchBitIdenticalAcrossThreadCounts) {
  // The acceptance bar for the protocol-agnostic API: econcast + testbed +
  // a second econcast variant (+ an analytic cell) in ONE batch must
  // produce bit-identical per-scenario results and BatchSummary for 1, 2
  // and 8 threads.
  const std::vector<Scenario> batch = mixed_protocol_batch();
  const BatchResult one = ScenarioRunner(RunnerOptions{1, 42, true}).run(batch);
  ASSERT_EQ(one.results.size(), batch.size());
  EXPECT_GT(one.results[0].groupput, 0.0);  // econcast delivered
  EXPECT_GT(one.results[1].packets_sent, 0u);  // testbed transmitted
  EXPECT_GT(one.results[3].groupput, 0.0);  // p4 analytic solved

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const BatchResult parallel =
        ScenarioRunner(RunnerOptions{threads, 42, true}).run(batch);
    ASSERT_EQ(parallel.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(i);
      expect_bit_identical(one.results[i], parallel.results[i]);
    }
    expect_summary_bit_identical(one.summary, parallel.summary);
  }
}

TEST(ScenarioRunner, OneThreadReportsCompletionsInIndexOrder) {
  // Only multi-threaded batches start longest-first; one thread runs in
  // index order, so a checkpointing session can flush every cell as soon
  // as it finishes.
  const std::vector<Scenario> batch = mixed_batch();
  std::vector<std::size_t> index_order(batch.size());
  std::iota(index_order.begin(), index_order.end(), std::size_t{0});
  ASSERT_NE(runner::cost_submit_order(batch), index_order);

  RunnerOptions options{1, 7, true};
  std::vector<std::size_t> reported;
  options.on_scenario_done = [&reported](const runner::ScenarioProgress& p) {
    reported.push_back(p.index);
  };
  ScenarioRunner(options).run(batch);
  EXPECT_EQ(reported, index_order);
}

TEST(ScenarioRunner, TwoThreadBatchStartsLongestFirst) {
  // Two participants claim the two longest cells first, and neither claims
  // again before its first cell has been reported, so one of those two is
  // the first completion however the threads are timed. In index order it
  // would be cell 0 or 1.
  const std::vector<Scenario> batch = mixed_batch();
  const std::vector<std::size_t> order = runner::cost_submit_order(batch);
  ASSERT_GT(std::min(order[0], order[1]), 1u);

  RunnerOptions options{2, 7, true};
  std::vector<std::size_t> reported;
  options.on_scenario_done = [&reported](const runner::ScenarioProgress& p) {
    reported.push_back(p.index);
  };
  ScenarioRunner(options).run(batch);
  ASSERT_EQ(reported.size(), batch.size());
  EXPECT_TRUE(reported[0] == order[0] || reported[0] == order[1])
      << "first completion: cell " << reported[0];
}

TEST(ScenarioRunner, MoreThreadsThanScenarios) {
  const std::vector<Scenario> batch{small_scenario(3, model::Mode::kAnyput, 0.5),
                                    small_scenario(4, model::Mode::kAnyput, 0.5)};
  const BatchResult a = ScenarioRunner(RunnerOptions{16, 3, true}).run(batch);
  const BatchResult b = ScenarioRunner(RunnerOptions{1, 3, true}).run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(a.results[i], b.results[i]);
  }
}

// -------------------------------------------------------------- exceptions --

TEST(ScenarioRunner, ScenarioFailurePropagates) {
  std::vector<Scenario> batch = mixed_batch();
  // Simulation's constructor rejects this — but only once the worker builds
  // the sim, so this exercises propagation out of the pool, not the upfront
  // batch validation.
  std::get<protocol::EconCastParams>(batch[3].protocol.params).config.sigma =
      -1.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    ScenarioRunner r(RunnerOptions{threads, 7, true});
    EXPECT_THROW(r.run(batch), std::invalid_argument);
  }
}

}  // namespace
