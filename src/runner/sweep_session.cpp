#include "runner/sweep_session.h"

#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "protocol/protocol_json.h"

namespace econcast::runner {

namespace {
using util::json::Object;
using util::json::Value;
}  // namespace

std::vector<Scenario> expand_with_overrides(const SweepManifest& manifest) {
  return manifest.spec.expand();
}

std::uint64_t manifest_cell_seed(const SweepManifest& manifest,
                                 const Scenario& cell,
                                 std::size_t global_index) noexcept {
  return manifest.reseed ? derive_seed(manifest.base_seed, global_index)
                         : protocol::effective_seed(cell.protocol);
}

SweepSession::SweepSession(SweepManifest manifest, std::string results_path,
                           Options options)
    : manifest_(std::move(manifest)),
      results_path_(std::move(results_path)),
      options_(std::move(options)),
      batch_(expand_with_overrides(manifest_)) {
  begin_ = options_.cell_begin;
  end_ = options_.cell_end == 0 ? batch_.size() : options_.cell_end;
  if (begin_ > end_ || end_ > batch_.size())
    throw std::invalid_argument(
        "sweep '" + manifest_.spec.name() + "': cell range [" +
        std::to_string(begin_) + ", " + std::to_string(end_) +
        ") is not a subrange of the " + std::to_string(batch_.size()) +
        "-cell expansion");
  completed_.reserve(cell_count());
  load_existing();
}

SweepSession::SweepSession(SweepManifest manifest, std::string results_path)
    : SweepSession(std::move(manifest), std::move(results_path), Options{}) {}

std::string SweepSession::default_results_path(
    const std::string& manifest_path) {
  static constexpr std::string_view kJson = ".json";
  std::string base = manifest_path;
  if (base.size() > kJson.size() &&
      base.compare(base.size() - kJson.size(), kJson.size(), kJson) == 0)
    base.resize(base.size() - kJson.size());
  return base + ".results.jsonl";
}

std::uint64_t SweepSession::cell_seed(std::size_t global_index) const noexcept {
  return manifest_cell_seed(manifest_, batch_[global_index], global_index);
}

void SweepSession::write_record(std::ostream& out, std::size_t global_index,
                                std::string_view result_json) const {
  Object record;
  record.set("index", static_cast<double>(global_index))
      .set("name", batch_[global_index].name)
      .set("seed", util::json::u64_to_string(cell_seed(global_index)));
  // The compact dump of {index, name, seed, result}: reopen the object and
  // write the result's encoding as its last member. Streaming it instead of
  // building the line keeps one copy of a large result in memory, not two.
  std::string head = util::json::dump(Value(std::move(record)));
  head.back() = ',';
  out << head << "\"result\":" << result_json << "}\n";
  if (!out.flush())
    throw std::runtime_error("write to results file '" + results_path_ +
                             "' failed");
}

void SweepSession::load_existing() {
  std::ifstream in(results_path_, std::ios::binary);
  if (!in) return;  // no checkpoint yet

  std::string line;
  std::uintmax_t good_bytes = 0;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // no trailing '\n': a kill mid-write — truncate it
    const std::size_t index = begin_ + completed_.size();
    if (index >= end_)
      throw std::runtime_error(
          "results file '" + results_path_ + "' has more cells than the " +
          std::to_string(cell_count()) + "-cell range [" +
          std::to_string(begin_) + ", " + std::to_string(end_) +
          ") of sweep '" + manifest_.spec.name() + "'");
    const auto where = [&] {
      return "results file '" + results_path_ + "' line " +
             std::to_string(completed_.size() + 1);
    };
    // A line that does not decode names its file and line; the mismatch
    // below is a std::runtime_error and passes through unchanged.
    try {
      const Value record = util::json::parse(line);
      const Object& o = record.as_object();
      const std::size_t recorded_index =
          util::json::size_from_json(o.at("index"), "results line index");
      const std::string& recorded_name = o.at("name").as_string();
      const std::uint64_t recorded_seed =
          util::json::u64_from_string(o.at("seed").as_string());
      if (recorded_index != index || recorded_name != batch_[index].name ||
          recorded_seed != cell_seed(index))
        throw std::runtime_error(
            where() + " does not match sweep '" + manifest_.spec.name() +
            "' cell " + std::to_string(index) + " ('" + batch_[index].name +
            "'): the file belongs to a different manifest or shard");
      completed_.push_back(protocol::sim_result_from_json(o.at("result")));
    } catch (const util::json::Error& e) {
      throw util::json::Error(where() + " is corrupt: " + e.what());
    }
    good_bytes += line.size() + 1;
  }
  in.close();

  // Drop whatever follows the last complete line (a partially written
  // record); the owning cell reruns on resume.
  std::error_code ec;
  const std::uintmax_t file_size =
      std::filesystem::file_size(results_path_, ec);
  if (!ec && file_size > good_bytes)
    std::filesystem::resize_file(results_path_, good_bytes);
}

std::size_t SweepSession::run(std::size_t limit) {
  // `offset` is the global index of the first cell still to run.
  const std::size_t offset = begin_ + completed_.size();
  std::size_t todo = end_ - offset;
  if (limit > 0 && limit < todo) todo = limit;
  if (todo == 0) return 0;

  std::ofstream out(results_path_, std::ios::binary | std::ios::app);
  if (!out)
    throw std::runtime_error("cannot append to results file '" +
                             results_path_ + "'");

  // Cache probe pass. A hit that is next in index order is checkpointed at
  // once, from the encoding the probe validated, and its result moves into
  // completed_ (reserved to cell_count(), so `ready` may point into it). A
  // hit behind a miss parks its decoded result in `cached` — stable
  // storage, the vector never resizes — until the miss lands. Checkpointing
  // hits before any execution means a later miss that throws loses none of
  // them. Only the misses in `miss_local` run.
  std::vector<std::optional<protocol::SimResult>> cached(todo);
  std::vector<const protocol::SimResult*> ready(todo, nullptr);
  std::vector<std::size_t> miss_local;  // local (range-relative) indices
  std::size_t next_flush = 0;
  if (options_.cache) {
    for (std::size_t local = 0; local < todo; ++local) {
      const std::size_t g = offset + local;
      CellCache::Probe probe = options_.cache->probe(batch_[g], cell_seed(g));
      if (!probe.hit) {
        miss_local.push_back(local);
      } else if (local == next_flush) {
        write_record(out, g, probe.result_json);
        completed_.push_back(std::move(probe.result));
        ready[local] = &completed_.back();
        ++next_flush;
      } else {
        ready[local] = &cached[local].emplace(std::move(probe.result));
      }
    }
  } else {
    miss_local.resize(todo);
    std::iota(miss_local.begin(), miss_local.end(), std::size_t{0});
  }

  // Completion-order reorder buffer (the hook below is serialized by the
  // executor): buffer out-of-order cells, append the ready prefix so the
  // file never has gaps, then report the finished cell. The file bytes
  // depend only on cell indices — never on where a result came from (cache
  // or execution) or what order the executor finished in.
  const auto flush_ready = [&] {
    while (next_flush < todo && ready[next_flush] != nullptr) {
      const protocol::SimResult& result = *ready[next_flush];
      write_record(out, offset + next_flush,
                   util::json::dump(protocol::to_json(result)));
      completed_.push_back(result);
      ++next_flush;
    }
  };
  std::size_t finished = offset - begin_;  // checkpointed or buffered
  const auto report = [&](std::size_t local) {
    ++finished;
    if (!options_.on_cell_done) return;
    ScenarioProgress global;
    global.index = offset + local;  // global cell index
    global.done = finished;
    global.total = cell_count();
    global.scenario = &batch_[global.index];
    global.result = ready[local];
    options_.on_cell_done(global);
  };

  for (std::size_t local = 0; local < todo; ++local)
    if (ready[local] != nullptr) report(local);

  if (!miss_local.empty()) {
    std::vector<Scenario> pending;
    std::vector<std::uint64_t> seeds;
    pending.reserve(miss_local.size());
    seeds.reserve(miss_local.size());
    for (const std::size_t local : miss_local) {
      pending.push_back(batch_[offset + local]);
      seeds.push_back(cell_seed(offset + local));
    }

    RunnerOptions runner_options;
    runner_options.num_threads = options_.num_threads;
    runner_options.executor = options_.executor;
    runner_options.on_scenario_done = [&](const ScenarioProgress& p) {
      // p.index is the cell's position in `pending` whatever order it ran
      // in (run_with_seeds keys progress by batch index).
      const std::size_t local = miss_local[p.index];
      if (options_.cache) {
        try {
          options_.cache->publish(batch_[offset + local], seeds[p.index],
                                  *p.result, p.wall_ms);
        } catch (const std::exception&) {
          // The cache is an optimization: a read-only or full cache
          // directory degrades to recomputing, it never fails the sweep.
        }
      }
      ready[local] = p.result;
      flush_ready();
      report(local);
    };

    ScenarioRunner(runner_options).run_with_seeds(pending, seeds);
  }
  return todo;
}

BatchResult SweepSession::results() const {
  if (!complete())
    throw std::logic_error("sweep '" + manifest_.spec.name() + "' has " +
                           std::to_string(completed_.size()) + "/" +
                           std::to_string(cell_count()) +
                           " cells completed; run() it to completion first");
  BatchResult out;
  out.results = completed_;
  out.summary = summarize(out.results);
  return out;
}

}  // namespace econcast::runner
