#include "fabric/merger.h"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "fabric/shard_plan.h"
#include "runner/manifest.h"
#include "runner/sweep_session.h"
#include "util/json.h"

namespace econcast::fabric {

namespace fs = std::filesystem;
namespace json = util::json;

namespace {

/// Validates the shard files of `plan` record by record against the
/// manifest expansion `batch` and appends their lines to `out`; returns the
/// cell count. Throws std::runtime_error naming the offending file.
std::size_t append_shards(const std::string& manifest_path,
                          const runner::SweepManifest& manifest,
                          const std::vector<runner::Scenario>& batch,
                          const ShardPlan& plan, std::ostream& out) {
  std::size_t global = 0;  // next expected cell index across all shards
  for (std::size_t i = 0; i < plan.shard_count(); ++i) {
    const ShardRange range = plan.shard(i);
    const std::string path =
        shard_results_path(manifest_path, i, plan.shard_count());
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      if (range.size() == 0) continue;  // empty shards need no file
      throw std::runtime_error("shard results '" + path +
                               "' is missing: shard " + std::to_string(i) +
                               " (" + std::to_string(range.size()) +
                               " cells) has not completed");
    }
    std::string line;
    std::size_t local = 0;
    while (std::getline(in, line)) {
      if (in.eof())
        throw std::runtime_error(
            "shard results '" + path +
            "' ends in a partial record: the shard's worker was killed "
            "mid-write and has not been resumed");
      if (global >= range.end)
        throw std::runtime_error(
            "shard results '" + path + "' has more than the " +
            std::to_string(range.size()) + " cells of its range [" +
            std::to_string(range.begin) + ", " + std::to_string(range.end) +
            ")");
      std::size_t recorded_index;
      std::string recorded_name;
      std::uint64_t recorded_seed;
      try {
        const json::Value record = json::parse(line);
        recorded_index =
            json::size_from_json(record.at("index"), "results line index");
        recorded_name = record.at("name").as_string();
        recorded_seed = json::u64_from_string(record.at("seed").as_string());
      } catch (const json::Error& e) {
        throw std::runtime_error("shard results '" + path + "' line " +
                                 std::to_string(local + 1) +
                                 " is corrupt: " + e.what());
      }
      if (recorded_index != global || recorded_name != batch[global].name ||
          recorded_seed !=
              runner::manifest_cell_seed(manifest, batch[global], global))
        throw std::runtime_error(
            "shard results '" + path + "' line " + std::to_string(local + 1) +
            " does not match sweep '" + manifest.spec.name() + "' cell " +
            std::to_string(global) + " ('" + batch[global].name +
            "'): wrong manifest, wrong shard, or interleaved writers");
      out << line << '\n';
      ++global;
      ++local;
    }
    if (global != range.end)
      throw std::runtime_error(
          "shard results '" + path + "' has " + std::to_string(local) +
          " of the " + std::to_string(range.size()) + " cells of range [" +
          std::to_string(range.begin) + ", " + std::to_string(range.end) +
          "): the shard has not completed");
  }
  return global;
}

}  // namespace

Merger::Report Merger::merge(const std::string& manifest_path,
                             std::string merged_path) {
  const ShardPlan plan = load_plan(manifest_path);
  return merge(manifest_path, plan.shard_count(), std::move(merged_path));
}

Merger::Report Merger::merge(const std::string& manifest_path,
                             std::size_t shard_count,
                             std::string merged_path) {
  const runner::SweepManifest manifest = runner::load_manifest(manifest_path);
  const std::vector<runner::Scenario> batch = manifest.spec.expand();
  // Workers run the pinned bounds, which a cost-balanced plan makes uneven;
  // the equal split applies only when no plan is pinned.
  ShardPlan plan(batch.size(), shard_count);
  if (plan_exists(manifest_path)) {
    ShardPlan pinned = load_plan(manifest_path);
    if (pinned.total_cells() != plan.total_cells() ||
        pinned.shard_count() != plan.shard_count())
      throw std::runtime_error(
          "shard plan '" + plan_path(manifest_path) + "' pins " +
          std::to_string(pinned.total_cells()) + " cells / " +
          std::to_string(pinned.shard_count()) + " shards; cannot merge as " +
          std::to_string(plan.total_cells()) + " cells / " +
          std::to_string(plan.shard_count()) + " shards");
    plan = std::move(pinned);
  }

  Report report;
  report.shard_count = shard_count;
  report.merged_path = merged_path.empty() ? merged_results_path(manifest_path)
                                           : std::move(merged_path);

  const std::string tmp = report.merged_path + ".merge.tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out)
    throw std::runtime_error("cannot write merged results '" + tmp + "'");

  // A rejected shard must not leave the half-written temp file behind.
  try {
    report.cells = append_shards(manifest_path, manifest, batch, plan, out);
    if (!out.flush())
      throw std::runtime_error("write to merged results '" + tmp +
                               "' failed");
    out.close();
    fs::rename(tmp, report.merged_path);
  } catch (...) {
    out.close();
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw;
  }
  return report;
}

}  // namespace econcast::fabric
