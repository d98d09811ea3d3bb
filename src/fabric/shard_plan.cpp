#include "fabric/shard_plan.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace econcast::fabric {

namespace fs = std::filesystem;
namespace json = util::json;

ShardPlan::ShardPlan(std::size_t total_cells, std::size_t shard_count)
    : total_cells_(total_cells) {
  if (shard_count == 0)
    throw std::invalid_argument("shard plan needs at least one shard");
  bounds_.resize(shard_count + 1);
  for (std::size_t i = 0; i <= shard_count; ++i)
    bounds_[i] = total_cells * i / shard_count;
}

ShardPlan::ShardPlan(std::size_t total_cells, std::vector<std::size_t> bounds)
    : total_cells_(total_cells), bounds_(std::move(bounds)) {
  if (bounds_.size() < 2)
    throw std::invalid_argument("shard plan needs at least one shard");
  if (bounds_.front() != 0 || bounds_.back() != total_cells_)
    throw std::invalid_argument(
        "shard bounds must run from 0 to the total of " +
        std::to_string(total_cells_) + " cells");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (bounds_[i] < bounds_[i - 1])
      throw std::invalid_argument("shard bounds must be non-decreasing");
}

bool ShardPlan::equal_split() const noexcept {
  const std::size_t k = shard_count();
  for (std::size_t i = 0; i <= k; ++i)
    if (bounds_[i] != total_cells_ * i / k) return false;
  return true;
}

ShardRange ShardPlan::shard(std::size_t i) const {
  if (i >= shard_count())
    throw std::out_of_range("shard " + std::to_string(i) +
                            " out of range for a " +
                            std::to_string(shard_count()) + "-shard plan");
  ShardRange range;
  range.index = i;
  range.count = shard_count();
  range.begin = bounds_[i];
  range.end = bounds_[i + 1];
  return range;
}

namespace {

std::string strip_json_suffix(const std::string& path) {
  static constexpr std::string_view kJson = ".json";
  std::string base = path;
  if (base.size() > kJson.size() &&
      base.compare(base.size() - kJson.size(), kJson.size(), kJson) == 0)
    base.resize(base.size() - kJson.size());
  return base;
}

std::string shard_stem(std::size_t shard, std::size_t shard_count) {
  return "shard-" + std::to_string(shard) + "-of-" +
         std::to_string(shard_count);
}

}  // namespace

std::string fabric_dir(const std::string& manifest_path) {
  return strip_json_suffix(manifest_path) + ".fabric";
}

std::string shard_results_path(const std::string& manifest_path,
                               std::size_t shard, std::size_t shard_count) {
  return fabric_dir(manifest_path) + "/" + shard_stem(shard, shard_count) +
         ".jsonl";
}

std::string shard_claim_path(const std::string& manifest_path,
                             std::size_t shard, std::size_t shard_count) {
  return fabric_dir(manifest_path) + "/" + shard_stem(shard, shard_count) +
         ".claim.json";
}

std::string plan_path(const std::string& manifest_path) {
  return fabric_dir(manifest_path) + "/plan.json";
}

std::string merged_results_path(const std::string& manifest_path) {
  return strip_json_suffix(manifest_path) + ".results.jsonl";
}

ShardPlan pin_plan(const std::string& manifest_path, const ShardPlan& plan) {
  const std::string path = plan_path(manifest_path);
  if (fs::exists(path)) {
    const ShardPlan pinned = load_plan(manifest_path);
    if (pinned.total_cells() != plan.total_cells() ||
        pinned.shard_count() != plan.shard_count())
      throw std::runtime_error(
          "shard plan '" + path + "' pins " +
          std::to_string(pinned.total_cells()) + " cells / " +
          std::to_string(pinned.shard_count()) + " shards, but " +
          std::to_string(plan.total_cells()) + " cells / " +
          std::to_string(plan.shard_count()) +
          " shards were requested; one manifest can only be sharded one "
          "way at a time (remove the fabric directory to replan)");
    // Same totals but different cut points (e.g. an equal-split worker
    // joining a cost-balanced plan): the pinned bounds win.
    return pinned;
  }

  fs::create_directories(fabric_dir(manifest_path));
  json::Object o;
  o.set("format", "econcast-shard-plan")
      .set("total_cells", static_cast<double>(plan.total_cells()))
      .set("shards", static_cast<double>(plan.shard_count()));
  if (!plan.equal_split()) {
    // Only non-default partitions carry explicit bounds; an absent array
    // means the equal split, keeping plan.json bytes (and older plans on
    // disk) unchanged for the common case.
    json::Array bounds;
    for (const std::size_t b : plan.bounds())
      bounds.emplace_back(static_cast<double>(b));
    o.set("bounds", json::Value(std::move(bounds)));
  }
  // Temp file + rename: a reader never sees a half-written plan. The name
  // is unique per (pid-free) writer attempt only in that concurrent pinners
  // write identical bytes, so whichever rename lands last is equivalent.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !(out << json::dump(json::Value(std::move(o)), 2) << "\n"))
      throw std::runtime_error("cannot write shard plan '" + tmp + "'");
  }
  fs::rename(tmp, path);
  return plan;
}

ShardPlan pin_plan(const std::string& manifest_path, std::size_t total_cells,
                   std::size_t shard_count) {
  return pin_plan(manifest_path, ShardPlan(total_cells, shard_count));
}

ShardPlan load_plan(const std::string& manifest_path) {
  const std::string path = plan_path(manifest_path);
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot read shard plan '" + path +
                             "': has a coordinator or worker pinned it?");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const json::Value v = json::parse(buffer.str());
    if (v.at("format").as_string() != "econcast-shard-plan")
      throw json::Error("unexpected format '" + v.at("format").as_string() +
                        "'");
    const std::size_t total_cells =
        json::size_from_json(v.at("total_cells"), "total_cells");
    const std::size_t shard_count =
        json::size_from_json(v.at("shards"), "shards");
    if (shard_count == 0) throw json::Error("shards must be at least 1");
    if (const json::Value* bounds_value = v.find("bounds")) {
      const json::Array& array = bounds_value->as_array();
      if (array.size() != shard_count + 1)
        throw json::Error("bounds must have shards+1 entries");
      std::vector<std::size_t> bounds;
      bounds.reserve(array.size());
      for (const json::Value& b : array)
        bounds.push_back(json::size_from_json(b, "bound"));
      try {
        return ShardPlan(total_cells, std::move(bounds));
      } catch (const std::invalid_argument& e) {
        throw json::Error(e.what());
      }
    }
    return ShardPlan(total_cells, shard_count);
  } catch (const json::Error& e) {
    throw std::runtime_error("shard plan '" + path + "' is corrupt: " +
                             e.what());
  }
}

bool plan_exists(const std::string& manifest_path) {
  return fs::exists(plan_path(manifest_path));
}

std::size_t complete_line_count(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::size_t lines = 0;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    const std::streamsize got = in.gcount();
    for (std::streamsize i = 0; i < got; ++i)
      if (buffer[i] == '\n') ++lines;
  }
  return lines;
}

}  // namespace econcast::fabric
