// perfbench_probe — the benchmark's process launcher, checker and traced
// run, linked against the econcast libraries and calling only their public
// functions.
//
//   perfbench_probe spawn PROGRAM [ARG...]
//     Runs PROGRAM with its standard output discarded, waits for it and
//     prints {"status": S, "wall_s": W, "cpu_s": C, "maxrss_kb": M} from the
//     program's own rusage (S is the exit code, or minus the signal). The
//     benchmark launches every program through this small process because
//     ru_maxrss counts the pages a child inherits at fork, so a child forked
//     straight from run.py would report the Python interpreter's resident
//     set instead of its own peak.
//
//   perfbench_probe check <manifest.json> <results.jsonl>
//     Checks every cell of the manifest's expansion against its results line
//     and prints {"cells": N, "failed": [{"index": i, "why": "..."}, ...]}.
//     A cell passes when its line has the expected index, name and seed;
//     every metric is finite (non-finite numbers are written as null);
//     α_i, β_i ∈ [0, 1] up to LP round-off; the network-mean measured power
//     is within kPowerTolerance of the mean budget ρ for simulated cells and
//     no node exceeds its budget for analytic cells; and the cell's
//     throughput in its mode does not exceed the oracle bound: the §IV
//     closed form for homogeneous cliques, the clique LP for heterogeneous
//     cliques, and the non-clique LP upper bound for any other graph.
//
//   perfbench_probe trace --threads T --spans FILE
//                         [--cache DIR --publish-dir DIR] (MANIFEST RESULTS)...
//     Runs each manifest the way econcast_sweep does and records a span
//     (name, start, end, parent, thread) around every call into a layer.
//     Spans stay in memory and are written to FILE as JSON lines at exit.
//     With --cache the sessions run warm against DIR through
//     SweepSession::run, and a second pass over the same cells times
//     CellCache::cell_key + entry_path, CellCache::probe and
//     CellCache::publish (into the empty --publish-dir) one call at a time,
//     since SweepSession::run makes those calls internally. Without a cache
//     the cells run through ScenarioRunner::run_with_seeds, the call
//     SweepSession::run makes for cells that miss the cache; each cell's span
//     ends when the runner reports it done and lasts the wall clock the
//     runner measured around Protocol::make_sim(...)->run(). Either way a
//     last pass decodes (json::parse + sim_result_from_json) and re-encodes
//     (protocol::to_json + json::dump) every results line. Before the first
//     sweep the recorder times itself over kCalibrationSpans spans on a
//     separate trace and puts the cost of one span on the root span
//     ("span_cost_s"): spans recorded x that cost is the tracing overhead.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oracle/clique_oracle.h"
#include "oracle/nonclique_oracle.h"
#include "protocol/protocol_json.h"
#include "runner/cell_cache.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"
#include "util/json.h"

namespace {

using namespace econcast;
using util::json::Object;
using util::json::Value;

/// Simulated cells must spend their budget: |mean P - mean ρ| ≤ 5% of mean ρ
/// over the fig6 measured window of 6e5 packet-times. The measured power's
/// error shrinks like 1/sqrt(window), so shorter windows (the self-test's)
/// get the tolerance widened by sqrt(6e5 / window).
constexpr double kPowerTolerance = 0.05;
constexpr double kPowerWindow = 6e5;
/// Relative slack for analytic values that meet a bound with equality.
constexpr double kBoundSlack = 1e-6;
/// Absolute slack on α_i, β_i: the oracle LP returns round-off such as
/// -3.5e-18 for fractions that are 0.
constexpr double kFractionSlack = 1e-12;
/// Spans recorded to measure the cost of one span; a traced run records
/// about 10^4.
constexpr int kCalibrationSpans = 100000;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string json_string(const std::string& s) { return util::json::dump(s); }

// ----------------------------------------------------------------- spawn --

int spawn_main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s spawn PROGRAM [ARG...]\n", argv[0]);
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_probe: fork");
    return 1;
  }
  if (pid == 0) {
    // Die with the launcher, so that no program outlives a killed run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execvp(argv[2], argv + 2);
    std::perror("perfbench_probe: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("perfbench_probe: wait4");
    return 1;
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : -WTERMSIG(status);
  std::printf(
      "{\"status\":%d,\"wall_s\":%s,\"cpu_s\":%s,\"maxrss_kb\":%ld}\n",
      code, util::json::format_double(wall).c_str(),
      util::json::format_double(cpu).c_str(), usage.ru_maxrss);
  return 0;
}

// ----------------------------------------------------------------- check --

bool has_null(const Value& v) {
  if (v.is_null()) return true;
  if (v.is_array())
    return std::any_of(v.as_array().begin(), v.as_array().end(), has_null);
  if (v.is_object())
    for (const auto& [key, member] : v.as_object().members())
      if (has_null(member)) return true;
  return false;
}

model::Mode cell_mode(const protocol::ProtocolSpec& spec) {
  if (const auto* p = std::get_if<protocol::EconCastParams>(&spec.params))
    return p->config.mode;
  if (const auto* p = std::get_if<protocol::P4Params>(&spec.params))
    return p->mode;
  if (const auto* p = std::get_if<protocol::OracleParams>(&spec.params))
    return p->mode;
  throw std::runtime_error("protocol '" + spec.name + "' has no oracle bound");
}

/// The oracle throughput bound of a cell, memoized by network and mode (the
/// σ and replicate axes share networks).
class Bounds {
 public:
  double of(const runner::Scenario& cell) {
    const model::Mode mode = cell_mode(cell.protocol);
    Object key;
    util::json::Array nodes;
    for (const model::NodeParams& n : cell.nodes)
      nodes.emplace_back(util::json::Array{Value(n.budget),
                                           Value(n.listen_power),
                                           Value(n.transmit_power)});
    util::json::Array edges;
    for (const auto& [i, j] : cell.topology.edges())
      edges.emplace_back(util::json::Array{Value(static_cast<double>(i)),
                                           Value(static_cast<double>(j))});
    key.set("mode", protocol::mode_to_token(mode))
        .set("nodes", std::move(nodes))
        .set("edges", std::move(edges));
    const std::string text = util::json::dump(Value(std::move(key)));
    const auto it = memo_.find(text);
    if (it != memo_.end()) return it->second;
    return memo_[text] = compute(cell, mode);
  }

 private:
  static double compute(const runner::Scenario& cell, model::Mode mode) {
    if (!cell.topology.is_clique()) {
      if (mode != model::Mode::kGroupput)
        throw std::runtime_error("no non-clique anyput bound");
      return oracle::nonclique_groupput(cell.nodes, cell.topology)
          .upper.throughput;
    }
    if (model::is_homogeneous(cell.nodes)) {
      const model::NodeParams& n = cell.nodes.front();
      return (mode == model::Mode::kGroupput
                  ? oracle::homogeneous_groupput_closed_form(
                        cell.nodes.size(), n.budget, n.listen_power,
                        n.transmit_power)
                  : oracle::homogeneous_anyput_closed_form(
                        cell.nodes.size(), n.budget, n.listen_power,
                        n.transmit_power))
          .throughput;
    }
    return oracle::solve(cell.nodes, mode).throughput;
  }

  std::map<std::string, double> memo_;
};

/// Empty when the cell passes, else the first failed check.
std::string check_cell(const runner::SweepManifest& manifest,
                       const runner::Scenario& cell, std::size_t index,
                       const std::string& line, Bounds& bounds) {
  Value record;
  try {
    record = util::json::parse(line);
  } catch (const std::exception& e) {
    return std::string("unparsable line: ") + e.what();
  }
  if (!record.is_object()) return "line is not an object";
  const Value* idx = record.find("index");
  const Value* name = record.find("name");
  const Value* seed = record.find("seed");
  const Value* result = record.find("result");
  if (idx == nullptr || name == nullptr || seed == nullptr ||
      result == nullptr)
    return "line lacks index, name, seed or result";
  if (!idx->is_number() || idx->as_number() != static_cast<double>(index))
    return "wrong index";
  if (!name->is_string() || name->as_string() != cell.name)
    return "wrong name";
  if (!seed->is_string() ||
      seed->as_string() !=
          util::json::u64_to_string(
              runner::manifest_cell_seed(manifest, cell, index)))
    return "wrong seed";
  if (has_null(*result)) return "non-finite metric";

  protocol::SimResult r;
  try {
    r = protocol::sim_result_from_json(*result);
  } catch (const std::exception& e) {
    return std::string("undecodable result: ") + e.what();
  }
  const std::size_t n = cell.nodes.size();
  if (r.avg_power.size() != n || r.listen_fraction.size() != n ||
      r.transmit_fraction.size() != n)
    return "per-node metrics do not match the node count";
  double power = 0.0;
  double budget = 0.0;
  const bool simulated =
      std::holds_alternative<protocol::EconCastParams>(cell.protocol.params);
  for (std::size_t i = 0; i < n; ++i) {
    const double alpha = r.listen_fraction[i];
    const double beta = r.transmit_fraction[i];
    if (!(alpha >= -kFractionSlack && alpha <= 1.0 + kFractionSlack &&
          beta >= -kFractionSlack && beta <= 1.0 + kFractionSlack))
      return "alpha or beta outside [0, 1] at node " + std::to_string(i);
    if (!simulated &&
        r.avg_power[i] > cell.nodes[i].budget * (1.0 + kBoundSlack))
      return "node " + std::to_string(i) + " exceeds its budget";
    power += r.avg_power[i];
    budget += cell.nodes[i].budget;
  }
  if (simulated) {
    if (!(r.measured_window > 0.0)) return "no measured window";
    const double tolerance =
        kPowerTolerance *
        std::sqrt(std::max(1.0, kPowerWindow / r.measured_window));
    if (std::fabs(power - budget) > tolerance * budget)
      return "mean power " + util::json::format_double(power / n) +
             " is not within " + util::json::format_double(100 * tolerance) +
             "% of mean budget " + util::json::format_double(budget / n);
  }

  double bound = 0.0;
  try {
    bound = bounds.of(cell);
  } catch (const std::exception& e) {
    return std::string("oracle bound: ") + e.what();
  }
  const double throughput = cell_mode(cell.protocol) == model::Mode::kGroupput
                                ? r.groupput
                                : r.anyput;
  if (throughput > bound * (1.0 + kBoundSlack))
    return "throughput " + util::json::format_double(throughput) +
           " exceeds the oracle bound " + util::json::format_double(bound);
  return {};
}

int check_main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s check <manifest> <results>\n", argv[0]);
    return 2;
  }
  const runner::SweepManifest manifest = runner::load_manifest(argv[2]);
  const std::vector<runner::Scenario> cells =
      runner::expand_with_overrides(manifest);
  const std::vector<std::string> lines = read_lines(argv[3]);
  Bounds bounds;
  std::string failed;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string why =
        i < lines.size() ? check_cell(manifest, cells[i], i, lines[i], bounds)
                         : "missing line";
    if (why.empty()) continue;
    if (!failed.empty()) failed += ",";
    failed += "{\"index\":" + std::to_string(i) +
              ",\"why\":" + json_string(why) + "}";
  }
  if (lines.size() > cells.size())
    failed += std::string(failed.empty() ? "" : ",") +
              "{\"index\":" + std::to_string(cells.size()) +
              ",\"why\":\"extra lines\"}";
  std::printf("{\"cells\":%zu,\"failed\":[%s]}\n", cells.size(),
              failed.c_str());
  return 0;
}

// ----------------------------------------------------------------- trace --

/// In-memory span recorder. Spans are written out once, at exit.
class Trace {
 public:
  struct Span {
    std::string name;
    long parent = -1;
    double start = 0.0;
    double end = 0.0;
    int thread = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  /// Seconds since the trace began.
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  long begin(const char* name, long parent) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, t, t, thread_index_locked(), {}});
    return static_cast<long>(spans_.size()) - 1;
  }

  void end(long id, std::vector<std::pair<std::string, double>> attrs = {}) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
    spans_[static_cast<std::size_t>(id)].attrs = std::move(attrs);
  }

  /// A span whose interval was measured elsewhere, on the calling thread.
  void add(const char* name, long parent, double start, double end,
           std::vector<std::pair<std::string, double>> attrs) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, start, end, thread_index_locked(),
                          std::move(attrs)});
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
          << ",\"parent\":" << s.parent
          << ",\"start\":" << util::json::format_double(s.start)
          << ",\"end\":" << util::json::format_double(s.end)
          << ",\"thread\":" << s.thread;
      for (const auto& [key, value] : s.attrs)
        out << "," << json_string(key) << ":"
            << util::json::format_double(value);
      out << "}\n";
    }
    if (!out.flush())
      throw std::runtime_error("cannot write spans to '" + path + "'");
  }

 private:
  using clock = std::chrono::steady_clock;

  int thread_index_locked() {
    const auto [it, inserted] = threads_.emplace(
        std::this_thread::get_id(), static_cast<int>(threads_.size()));
    return it->second;
  }

  clock::time_point origin_ = clock::now();
  std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// Closes its span when it goes out of scope.
class Scope {
 public:
  Scope(Trace& trace, const char* name, long parent)
      : trace_(trace), id_(trace.begin(name, parent)) {}
  ~Scope() { trace_.end(id_, std::move(attrs)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  long id() const noexcept { return id_; }
  std::vector<std::pair<std::string, double>> attrs;

 private:
  Trace& trace_;
  long id_;
};

/// Seconds to record one span with one attribute, as every traced call does.
double span_cost_s() {
  Trace calibration;
  const auto start = std::chrono::steady_clock::now();
  {
    Scope outer(calibration, "calibration", -1);
    for (int i = 0; i < kCalibrationSpans; ++i) {
      Scope span(calibration, "span", outer.id());
      span.attrs = {{"n", 1.0}};
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() /
         kCalibrationSpans;
}

std::string record_line(std::size_t index, const std::string& name,
                        std::uint64_t seed, const protocol::SimResult& r) {
  Object record;
  record.set("index", static_cast<double>(index))
      .set("name", name)
      .set("seed", util::json::u64_to_string(seed))
      .set("result", protocol::to_json(r));
  return util::json::dump(Value(std::move(record))) + "\n";
}

struct TraceOptions {
  std::size_t threads = 1;
  std::string spans_path;
  std::string cache_dir;    // empty: cache off
  std::string publish_dir;  // where the publish pass writes
};

void trace_cached(Trace& trace, long parent, runner::SweepSession& session,
                  const TraceOptions& options) {
  {
    Scope run(trace, "runner.session_run", parent);
    session.run();
    const runner::CellCache::Stats& stats = session.cache()->stats();
    run.attrs = {{"hits", static_cast<double>(stats.hits)},
                 {"misses", static_cast<double>(stats.misses)},
                 {"rejected", static_cast<double>(stats.rejected)}};
  }
  Scope pass(trace, "measure.cache", parent);
  runner::CellCache cache(options.cache_dir);
  runner::CellCache publish(options.publish_dir);
  const std::vector<runner::Scenario>& cells = session.cells();
  for (std::size_t g = 0; g < cells.size(); ++g) {
    const std::uint64_t seed =
        runner::manifest_cell_seed(session.manifest(), cells[g], g);
    {
      Scope key(trace, "cache.key", pass.id());
      (void)cache.entry_path(cache.cell_key(cells[g], seed));
    }
    runner::CellCache::Probe probe;
    {
      Scope span(trace, "cache.probe", pass.id());
      probe = cache.probe(cells[g], seed);
      span.attrs = {{"hit", probe.hit ? 1.0 : 0.0}};
    }
    Scope span(trace, "cache.publish", pass.id());
    publish.publish(cells[g], seed, probe.result, 0.0);
  }
}

void trace_simulated(Trace& trace, long parent, runner::SweepSession& session,
                     const std::string& results_path,
                     const TraceOptions& options) {
  const std::vector<runner::Scenario>& cells = session.cells();
  std::vector<std::uint64_t> seeds(cells.size());
  for (std::size_t g = 0; g < cells.size(); ++g)
    seeds[g] = runner::manifest_cell_seed(session.manifest(), cells[g], g);

  runner::BatchResult batch;
  {
    Scope run(trace, "runner.run_with_seeds", parent);
    runner::RunnerOptions runner_options;
    runner_options.num_threads = options.threads;
    const long run_id = run.id();
    runner_options.on_scenario_done =
        [&trace, run_id](const runner::ScenarioProgress& p) {
          const double end = trace.now();
          trace.add("sim.cell", run_id, end - p.wall_ms / 1e3, end,
                    {{"events", p.result->extra("events_processed")}});
        };
    batch = runner::ScenarioRunner(runner_options).run_with_seeds(cells, seeds);
  }
  Scope write(trace, "runner.write_results", parent);
  std::ofstream out(results_path, std::ios::binary | std::ios::trunc);
  for (std::size_t g = 0; g < cells.size(); ++g)
    out << record_line(g, cells[g].name, seeds[g], batch.results[g]);
  if (!out.flush())
    throw std::runtime_error("cannot write '" + results_path + "'");
}

/// Decodes and re-encodes every results line; a re-encoding that differs
/// from the line is an error.
void trace_json(Trace& trace, long parent, const std::string& results_path) {
  Scope pass(trace, "measure.json", parent);
  for (const std::string& line : read_lines(results_path)) {
    const double bytes = static_cast<double>(line.size() + 1);
    Value record;
    protocol::SimResult result;
    {
      Scope span(trace, "json.decode", pass.id());
      record = util::json::parse(line);
      result = protocol::sim_result_from_json(record.at("result"));
      span.attrs = {{"bytes", bytes}};
    }
    std::string encoded;
    {
      Scope span(trace, "json.encode", pass.id());
      const Object& o = record.as_object();
      encoded = record_line(
          static_cast<std::size_t>(o.at("index").as_number()),
          o.at("name").as_string(),
          util::json::u64_from_string(o.at("seed").as_string()), result);
      span.attrs = {{"bytes", static_cast<double>(encoded.size())}};
    }
    if (encoded != line + "\n")
      throw std::runtime_error("re-encoding a line of '" + results_path +
                               "' changed its bytes");
  }
}

int trace_main(int argc, char** argv) {
  TraceOptions options;
  std::vector<std::pair<std::string, std::string>> sweeps;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--threads" && has_value) {
      options.threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else if (arg == "--cache" && has_value) {
      options.cache_dir = argv[++i];
    } else if (arg == "--publish-dir" && has_value) {
      options.publish_dir = argv[++i];
    } else if (arg[0] != '-' && has_value) {
      sweeps.emplace_back(arg, argv[++i]);
    } else {
      sweeps.clear();
      break;
    }
  }
  if (sweeps.empty() || options.spans_path.empty() || options.threads == 0 ||
      options.cache_dir.empty() != options.publish_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s trace --threads T --spans FILE [--cache DIR "
                 "--publish-dir DIR] (MANIFEST RESULTS)...\n",
                 argv[0]);
    return 2;
  }

  const double span_cost = span_cost_s();
  Trace trace;
  {
    Scope root(trace, "trace", -1);
    root.attrs = {{"span_cost_s", span_cost}};
    for (const auto& [manifest_path, results_path] : sweeps) {
      Scope sweep(trace, "sweep", root.id());
      std::remove(results_path.c_str());
      runner::SweepSession::Options session_options;
      session_options.num_threads = options.threads;
      if (!options.cache_dir.empty())
        session_options.cache =
            std::make_shared<runner::CellCache>(options.cache_dir);
      std::optional<runner::SweepSession> session;
      {
        Scope load(trace, "runner.manifest_load", sweep.id());
        session.emplace(runner::load_manifest(manifest_path), results_path,
                        session_options);
      }
      if (options.cache_dir.empty())
        trace_simulated(trace, sweep.id(), *session, results_path, options);
      else
        trace_cached(trace, sweep.id(), *session, options);
      trace_json(trace, sweep.id(), results_path);
    }
  }
  trace.write(options.spans_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "spawn") == 0)
      return spawn_main(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "check") == 0)
      return check_main(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "trace") == 0)
      return trace_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: %s spawn|check|trace ...\n", argv[0]);
  return 2;
}
