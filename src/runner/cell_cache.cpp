#include "runner/cell_cache.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "protocol/protocol_json.h"
#include "runner/cost_model.h"
#include "runner/manifest.h"
#include "util/sha256.h"

namespace econcast::runner {

namespace fs = std::filesystem;

namespace {

using util::json::Object;
using util::json::Value;

constexpr const char* kEntryFormat = "econcast-cell-cache";
constexpr int kKeySchema = 2;

/// Reads the whole file; true only when it holds one complete
/// '\n'-terminated line (anything else — empty, truncated mid-write,
/// multi-line garbage — is not a valid entry).
bool read_entry_line(const std::string& path, std::string& line) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (text.empty() || text.back() != '\n') return false;
  text.pop_back();
  if (text.find('\n') != std::string::npos) return false;
  line = std::move(text);
  return true;
}

/// Calls fn(entry, size) for every regular *.jsonl file under `dir`. Each
/// entry gets its own error code, so one whose status or size cannot be
/// read (a symlink loop, an entry another gc removed mid-walk) is counted
/// in `unreadable` and skipped instead of ending the walk.
template <class Fn>
void for_each_entry_file(const std::string& dir, std::size_t& unreadable,
                         Fn&& fn) {
  std::error_code walk_ec;
  for (fs::recursive_directory_iterator it(dir, walk_ec), end;
       !walk_ec && it != end; it.increment(walk_ec)) {
    if (it->path().extension() != ".jsonl") continue;
    std::error_code ec;
    const bool regular = it->is_regular_file(ec);
    if (ec) {
      ++unreadable;
      continue;
    }
    if (!regular) continue;
    const std::uintmax_t size = it->file_size(ec);
    if (ec) {
      ++unreadable;
      continue;
    }
    fn(*it, size);
  }
}

}  // namespace

CellCache::CellCache(std::string dir, std::string epoch)
    : dir_(std::move(dir)), epoch_(std::move(epoch)) {
  if (dir_.empty())
    throw std::invalid_argument("cell cache needs a directory");
}

Value CellCache::cell_key(const Scenario& cell, std::uint64_t seed) const {
  Object key;
  key.set("format", kEntryFormat)
      .set("schema", kKeySchema)
      .set("epoch", epoch_)
      .set("seed", util::json::u64_to_string(seed));
  // The scenario codec already serializes everything the result depends on
  // (nodes, topology, the ProtocolSpec); only the name is dropped — names
  // embed the sweep name, and cells are shared across sweeps.
  const Value scenario = to_json(cell);
  for (const auto& [member, value] : scenario.as_object().members())
    if (member != "name") key.set(member, value);
  return Value(std::move(key));
}

std::string CellCache::entry_path(const Value& key) const {
  const std::string hex = util::sha256_hex(util::json::dump(key));
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".jsonl";
}

CellCache::Probe CellCache::probe(const Scenario& cell, std::uint64_t seed) {
  Probe out;
  const Value key = cell_key(cell, seed);
  const std::string path = entry_path(key);
  std::string line;
  if (!read_entry_line(path, line)) {
    std::error_code ec;
    if (fs::exists(path, ec))
      ++stats_.rejected;  // present but empty/truncated/torn
    else
      ++stats_.misses;
    return out;
  }
  try {
    const Value entry = util::json::parse(line);
    if (entry.at("format").as_string() != kEntryFormat)
      throw util::json::Error("not a cell-cache entry");
    if (entry.at("epoch").as_string() != epoch_)
      throw util::json::Error("epoch mismatch");
    if (!(entry.at("key") == key))
      throw util::json::Error("key mismatch");
    protocol::SimResult result =
        protocol::sim_result_from_json(entry.at("result"));
    // The contract is byte-identity of the results file, so the decoded
    // result must re-serialize to exactly the stored bytes — any drift
    // (edited entry, codec change without an epoch bump) recomputes.
    std::string result_json = util::json::dump(protocol::to_json(result));
    if (result_json != util::json::dump(entry.at("result")))
      throw util::json::Error("result does not round-trip");
    out.hit = true;
    out.result = std::move(result);
    out.result_json = std::move(result_json);
    ++stats_.hits;
  } catch (const std::exception&) {
    ++stats_.rejected;
    out.hit = false;
  }
  return out;
}

bool CellCache::contains(const Scenario& cell, std::uint64_t seed) const {
  std::error_code ec;
  return fs::exists(entry_path(cell_key(cell, seed)), ec);
}

void CellCache::publish(const Scenario& cell, std::uint64_t seed,
                        const protocol::SimResult& result, double wall_ms) {
  const Value key = cell_key(cell, seed);
  const std::string path = entry_path(key);

  Object cost;
  cost.set("protocol", cell.protocol.name)
      .set("units", CostModel::estimate_units(cell));
  Object entry;
  entry.set("format", kEntryFormat)
      .set("epoch", epoch_)
      .set("key", key)
      .set("cost", Value(std::move(cost)))
      .set("wall_ms", wall_ms)
      .set("result", protocol::to_json(result));
  const std::string text = util::json::dump(Value(std::move(entry))) + "\n";

  const fs::path target(path);
  std::error_code ec;
  fs::create_directories(target.parent_path(), ec);
  if (ec)
    throw std::runtime_error("cannot create cache directory '" +
                             target.parent_path().string() +
                             "': " + ec.message());
  // Pid-unique temp name: concurrent publishers of the same cell never
  // clobber each other's half-written temp; the rename is atomic.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("cannot write cache entry '" + tmp + "'");
    out << text;
    if (!out.flush())
      throw std::runtime_error("write to cache entry '" + tmp + "' failed");
  }
  std::error_code rename_ec;
  fs::rename(tmp, path, rename_ec);
  if (rename_ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("cannot rename cache entry '" + tmp + "' to '" +
                             path + "': " + rename_ec.message());
  }
  ++stats_.publishes;
}

CellCache::DirStats CellCache::scan(const std::string& dir) {
  DirStats out;
  for_each_entry_file(
      dir, out.unreadable,
      [&](const fs::directory_entry& file, std::uintmax_t size) {
        ++out.entries;
        out.bytes += size;
        std::string line;
        if (!read_entry_line(file.path().string(), line)) return;
        try {
          const Value entry = util::json::parse(line);
          const Value& cost = entry.at("cost");
          const std::string& name = cost.at("protocol").as_string();
          const double units = cost.at("units").as_number();
          const double wall_ms = entry.at("wall_ms").as_number();
          ProtocolStats& protocol = out.by_protocol[name];
          ++protocol.entries;
          protocol.wall_ms += wall_ms;
          protocol.units += units;
          out.total_wall_ms += wall_ms;
        } catch (const std::exception&) {
          // Unparsable entries still occupy space; counted above.
        }
      });
  return out;
}

CellCache::GcReport CellCache::gc(const std::string& dir,
                                  std::uintmax_t max_bytes) {
  GcReport report;
  struct EntryFile {
    fs::file_time_type mtime;
    std::string path;
    std::uintmax_t size = 0;
  };
  std::vector<EntryFile> files;
  for_each_entry_file(
      dir, report.unreadable,
      [&](const fs::directory_entry& file, std::uintmax_t size) {
        std::error_code ec;
        EntryFile f;
        f.mtime = file.last_write_time(ec);
        if (ec) {
          ++report.unreadable;
          return;
        }
        f.path = file.path().string();
        f.size = size;
        files.push_back(std::move(f));
      });
  report.entries_before = files.size();
  for (const EntryFile& f : files) report.bytes_before += f.size;
  report.bytes_after = report.bytes_before;
  if (report.bytes_before <= max_bytes) return report;

  // Oldest first; ties broken by path so runs over identical trees delete
  // the same files.
  std::sort(files.begin(), files.end(),
            [](const EntryFile& a, const EntryFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const EntryFile& f : files) {
    if (report.bytes_after <= max_bytes) break;
    std::error_code ec;
    if (fs::remove(f.path, ec) && !ec) {
      report.bytes_after -= f.size;
      ++report.entries_removed;
    }
  }
  return report;
}

}  // namespace econcast::runner
