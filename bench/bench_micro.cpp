// Micro-benchmarks (google-benchmark) for the library's hot paths: Gibbs
// evaluation over W, the symmetric collapse, the dual solvers, the LP
// oracle, the event-queue substrate, and the event-driven simulator.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "econcast/simulation.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "gibbs/symmetric.h"
#include "model/state_space.h"
#include "oracle/clique_oracle.h"
#include "sim/event_queue.h"
#include "util/random.h"

namespace {

using namespace econcast;

// The event-queue benches pop unconditionally.
constexpr double kNoLimit = std::numeric_limits<double>::infinity();

void BM_StateSpaceEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::uint64_t acc = 0;
    model::for_each_state(n, [&](const model::NetState& s) {
      acc += static_cast<std::uint64_t>(s.listener_count());
    });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model::state_space_size(n)));
}
BENCHMARK(BM_StateSpaceEnumeration)->Arg(5)->Arg(10)->Arg(14);

// One pass over W at a fixed η (every state's log-weight and log Z), into a
// reused evaluation, as the (P4) line search does per candidate.
void BM_ExactGibbsEvaluate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const gibbs::ExactGibbs g(nodes, model::Mode::kGroupput, 0.25);
  const std::vector<double> eta(n, 0.003);
  gibbs::GibbsEvaluation eval;
  for (auto _ : state) {
    g.evaluate(eta, eval);
    benchmark::DoNotOptimize(eval.log_partition);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model::state_space_size(n)));
}
BENCHMARK(BM_ExactGibbsEvaluate)->Arg(5)->Arg(10)->Arg(14);

// The moments read from an existing evaluation (no log-weight recomputed).
void BM_ExactGibbsMarginals(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const gibbs::ExactGibbs g(nodes, model::Mode::kGroupput, 0.25);
  gibbs::GibbsEvaluation eval;
  g.evaluate(std::vector<double>(n, 0.003), eval);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.marginals(eval));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model::state_space_size(n)));
}
BENCHMARK(BM_ExactGibbsMarginals)->Arg(5)->Arg(10)->Arg(14);

void BM_SymmetricGibbsMarginals(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gibbs::SymmetricGibbs g(n, {10.0, 500.0, 500.0},
                                model::Mode::kGroupput, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.marginals(0.003));
  }
}
BENCHMARK(BM_SymmetricGibbsMarginals)->Arg(5)->Arg(50)->Arg(500);

void BM_P4SolveSymmetric(benchmark::State& state) {
  const auto nodes = model::homogeneous(
      static_cast<std::size_t>(state.range(0)), 10.0, 500.0, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gibbs::solve_p4(nodes, model::Mode::kGroupput, 0.25));
  }
}
BENCHMARK(BM_P4SolveSymmetric)->Arg(5)->Arg(10)->Arg(100);

void BM_P4SolveAccelerated(benchmark::State& state) {
  const auto nodes = model::homogeneous(
      static_cast<std::size_t>(state.range(0)), 10.0, 500.0, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gibbs::solve_p4(
        gibbs::ExactGibbs(nodes, model::Mode::kGroupput, 0.25)));
  }
}
BENCHMARK(BM_P4SolveAccelerated)->Arg(5)->Arg(8);

void BM_OracleGroupputLP(benchmark::State& state) {
  const auto nodes = model::homogeneous(
      static_cast<std::size_t>(state.range(0)), 10.0, 500.0, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::groupput(nodes));
  }
}
BENCHMARK(BM_OracleGroupputLP)->Arg(5)->Arg(25)->Arg(100);

// An event-queue push/pop cycle of durable events. Arg 0 is the node count
// N (live events ≈ 4N per EventQueue::capacity_for_nodes, so N = 64 is the
// fig. 6 regime). The queue is constructed and pre-reserved once, outside
// the timing loop, and pre-filled to its steady-state population — so the
// measured region is pure queue ops rather than allocator churn. Each push
// lands at the popped time plus an exponential gap, which is not the
// simulator's loop: its durable kinds come at a fixed delay (the multiplier
// boundary at now + τ, packet ends at now + 1), so every such push joins
// its kind's FIFO lane. A random-gap push joins the lane only when it is
// not earlier than the lane's tail and enters the heap otherwise, so here
// the pushes split between a lane and the heap.
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t live = 4 * n;
  util::Rng rng(2024);
  constexpr std::size_t kGapMask = (1u << 12) - 1;
  std::vector<double> gaps(kGapMask + 1);
  for (double& g : gaps) g = rng.exponential(1.0);

  sim::EventQueue q;
  q.reserve_for_nodes(n);
  std::size_t g = 0;
  for (std::size_t i = 0; i < live; ++i)
    q.push(gaps[g++ & kGapMask], sim::EventKind::kTransition,
           static_cast<std::uint32_t>(i % n));

  double acc = 0.0;
  sim::Event e;
  for (auto _ : state) {
    for (std::size_t i = 0; i < live; ++i) {
      q.pop_until(kNoLimit, e);
      acc += e.time;
      q.push(e.time + gaps[g++ & kGapMask], e.kind, e.node);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * live));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// The cancellation path: every op re-schedules a node's pending transition,
// replacing the slot's live event in place and sifting it to its new
// position — the pattern proto::Simulation's schedule_transition produces
// under carrier-sense resampling.
void BM_EventQueueScheduleCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4048);
  constexpr std::size_t kGapMask = (1u << 12) - 1;
  std::vector<double> gaps(kGapMask + 1);
  for (double& g : gaps) g = rng.exponential(1.0);
  std::vector<std::uint32_t> order(kGapMask + 1);
  for (auto& o : order)
    o = static_cast<std::uint32_t>(rng.uniform() * static_cast<double>(n));

  sim::EventQueue q;
  q.reserve_for_nodes(n);
  double now = 0.0;
  sim::Event e;
  std::size_t g = 0;
  for (std::size_t i = 0; i < n; ++i)
    q.schedule(gaps[g++ & kGapMask], sim::EventKind::kTransition,
               static_cast<std::uint32_t>(i));

  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      // A transition fires...
      q.pop_until(kNoLimit, e);
      now = e.time;
      q.schedule(now + gaps[g++ & kGapMask], sim::EventKind::kTransition,
                 e.node);
      // ...and a carrier toggle makes two neighbors re-sample.
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t j = order[g & kGapMask];
        q.schedule(now + gaps[g++ & kGapMask], sim::EventKind::kTransition,
                   j);
      }
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(64)->Arg(256);

void BM_SimulatorEvents(benchmark::State& state) {
  const auto nodes = model::homogeneous(5, 10.0, 500.0, 500.0);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    proto::SimConfig cfg;
    cfg.sigma = 0.5;
    cfg.duration = 1e5;
    cfg.seed = seed++;
    proto::Simulation sim(nodes, model::Topology::clique(5), cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.groupput);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_SimulatorEvents);

// The simulator's hot path on fig. 6-style grids. Arg 0 is the grid side k
// (N = k²). The config mirrors the fig. 6 cells (energy guard, adaptive
// multiplier from eta = 0) at a shortened duration, so the measured region
// exercises the listener-count / rate-exponential / event-queue costs of a
// real cell; items/sec is events handled per second.
void BM_SimulatorGrid(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = k * k;
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const auto topo = model::Topology::grid(k, k);
  std::uint64_t seed = 66 + n;
  std::uint64_t events = 0;
  for (auto _ : state) {
    proto::SimConfig cfg;
    cfg.sigma = 0.25;
    cfg.duration = 2e5;
    cfg.warmup = cfg.duration * 0.4;
    cfg.seed = seed++;
    cfg.energy_guard = true;
    cfg.initial_energy = 5e5;
    proto::Simulation sim(nodes, topo, cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.groupput);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_SimulatorGrid)->Arg(4)->Arg(8)->Arg(16);

// The clique-ladder cells at a tenth of their horizon: σ = 0.5 under the
// fig6 guard settings, where every burst start cancels and every burst end
// re-samples the pending transitions of all N - 1 neighbours.
void BM_SimulatorClique(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const auto topo = model::Topology::clique(n);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    proto::SimConfig cfg;
    cfg.sigma = 0.5;
    cfg.duration = 1e5;
    cfg.warmup = cfg.duration * 0.4;
    cfg.seed = seed++;
    cfg.energy_guard = true;
    cfg.initial_energy = 5e5;
    proto::Simulation sim(nodes, topo, cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.groupput);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_SimulatorClique)->Arg(25)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
