// Tests for the sweep throughput layer: the content-addressed CellCache
// (hit/miss/rejected/publish accounting, tamper and truncation rejection,
// epoch isolation, concurrent publish, gc/scan), the CostModel and its LPT
// submission order, ScenarioRunner::run_with_seeds seed validation, and the
// end-to-end guarantee the whole layer hangs off: a sweep run with the
// cache off, cold or warm produces byte-identical results files, with the
// warm run executing zero cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "protocol/protocol.h"
#include "protocol/protocol_json.h"
#include "runner/cell_cache.h"
#include "runner/cost_model.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"

namespace {

using namespace econcast;
namespace fs = std::filesystem;

fs::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("econcast_") + info->test_suite_name() +
                        "_" + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A small mixed stochastic + analytic sweep: 2 protocols x 2 N x 2 σ x 2
/// replicates = 16 cells, a couple of seconds end to end.
runner::SweepManifest small_manifest() {
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  cfg.warmup = 5e2;
  return runner::SweepManifest(
      runner::SweepSpec("cache-mini")
          .protocols({protocol::econcast_spec(cfg),
                      protocol::p4_spec(model::Mode::kGroupput, 0.5)})
          .node_counts({3, 4})
          .sigmas({0.5, 0.75})
          .replicates(2),
      /*seed=*/7, true);
}

/// All entry files currently in a cache directory, path-sorted so tests can
/// sabotage deterministic victims.
std::vector<fs::path> entry_files(const fs::path& cache_dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir))
    if (e.is_regular_file() && e.path().extension() == ".jsonl")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

// ------------------------------------------------------------ cache keys --

TEST(CellCache, KeyIgnoresNameAndSeparatesSeeds) {
  const fs::path dir = test_dir();
  runner::CellCache cache((dir / "cache").string());
  const auto cells = runner::expand_with_overrides(small_manifest());
  ASSERT_GE(cells.size(), 2u);

  runner::Scenario renamed = cells[0];
  renamed.name = "a-different-sweep/" + renamed.name;
  EXPECT_EQ(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(renamed, 42)));
  EXPECT_NE(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(cells[0], 43)));
  // Replicates of one spec share a key (only their names and seeds differ);
  // a different spec (other protocol/N/σ) never does.
  EXPECT_EQ(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(cells[1], 42)));
  EXPECT_NE(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(cells.back(), 42)));
  // <dir>/<2 hex>/<64 hex>.jsonl.
  const std::string path = cache.entry_path(cache.cell_key(cells[0], 42));
  const std::string tail = path.substr((dir / "cache").string().size());
  EXPECT_EQ(tail.size(), 1 + 2 + 1 + 64 + 6);
  EXPECT_EQ(tail.substr(1, 2), tail.substr(4, 2));
}

TEST(CellCache, KeyDocumentHoldsScenarioDataOnly) {
  const fs::path dir = test_dir();
  const runner::CellCache cache((dir / "cache").string());
  const auto cells = runner::expand_with_overrides(small_manifest());
  const util::json::Value key = cache.cell_key(cells[0], 42);
  EXPECT_EQ(key.at("schema").as_number(), 2.0);
  // Exactly the documented members: no execution policy (engine, kernel
  // tier, threads, order) may enter the key.
  std::vector<std::string> members;
  for (const auto& [member, value] : key.as_object().members())
    members.push_back(member);
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members,
            (std::vector<std::string>{"epoch", "format", "nodes", "protocol",
                                      "schema", "seed", "topology"}));
}

TEST(CellCache, ForeignEpochIsADisjointNamespace) {
  const fs::path dir = test_dir();
  const auto cells = runner::expand_with_overrides(small_manifest());
  const protocol::SimResult result;  // content is irrelevant here

  runner::CellCache old_epoch((dir / "cache").string(), "econcast-epoch-0");
  old_epoch.publish(cells[0], 42, result, 1.0);
  EXPECT_EQ(old_epoch.stats().publishes, 1u);
  EXPECT_TRUE(old_epoch.probe(cells[0], 42).hit);

  // The current epoch hashes to a different path entirely: a clean miss,
  // not a rejection — stale epochs can never collide with live entries.
  runner::CellCache current((dir / "cache").string());
  EXPECT_FALSE(current.probe(cells[0], 42).hit);
  EXPECT_EQ(current.stats().misses, 1u);
  EXPECT_EQ(current.stats().rejected, 0u);
}

TEST(CellCache, ConcurrentPublishersOfOneCellNeverTearTheEntry) {
  const fs::path dir = test_dir();
  const std::string cache_dir = (dir / "cache").string();
  const auto cells = runner::expand_with_overrides(small_manifest());
  protocol::SimResult result;
  result.groupput = 0.125;

  // All writers publish identical bytes (same cell, same wall_ms). The
  // pid-unique temp name de-conflicts *processes*; same-process rivals can
  // race each other's rename, which surfaces as a publish error — losing
  // the race is fine as long as at least one publish lands and the entry is
  // never torn.
  std::atomic<int> published{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t)
    writers.emplace_back([&cache_dir, &cells, &result, &published] {
      runner::CellCache cache(cache_dir);
      for (int i = 0; i < 25; ++i) {
        try {
          cache.publish(cells[0], 42, result, 1.0);
          published.fetch_add(1);
        } catch (const std::runtime_error&) {
          // Lost a rename race to a rival publisher.
        }
      }
    });
  for (std::thread& w : writers) w.join();
  EXPECT_GE(published.load(), 1);

  // One entry, valid, with the agreed result bytes; no leftover temp files.
  runner::CellCache reader(cache_dir);
  const runner::CellCache::Probe probe = reader.probe(cells[0], 42);
  ASSERT_TRUE(probe.hit);
  EXPECT_EQ(probe.result.groupput, 0.125);
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir))
    if (e.is_regular_file()) {
      ++files;
      EXPECT_EQ(e.path().extension(), ".jsonl") << e.path();
    }
  EXPECT_EQ(files, 1u);
}

TEST(CellCache, ScanAndGcAccountForEntries) {
  const fs::path dir = test_dir();
  const std::string cache_dir = (dir / "cache").string();
  const auto cells = runner::expand_with_overrides(small_manifest());
  runner::CellCache cache(cache_dir);
  const protocol::SimResult result;
  for (std::size_t i = 0; i < 4; ++i)
    cache.publish(cells[i], 100 + i, result, 2.5);

  const auto stats = runner::CellCache::scan(cache_dir);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.total_wall_ms, 10.0);
  std::size_t by_protocol = 0;
  double wall_ms_by_protocol = 0.0;
  for (const auto& [name, protocol] : stats.by_protocol) {
    by_protocol += protocol.entries;
    wall_ms_by_protocol += protocol.wall_ms;
    EXPECT_DOUBLE_EQ(protocol.wall_ms, 2.5 * protocol.entries) << name;
  }
  EXPECT_EQ(by_protocol, 4u);
  EXPECT_DOUBLE_EQ(wall_ms_by_protocol, 10.0);
  EXPECT_EQ(stats.unreadable, 0u);

  // GC to zero removes everything; an empty dir scans/gcs cleanly.
  const auto report = runner::CellCache::gc(cache_dir, 0);
  EXPECT_EQ(report.entries_before, 4u);
  EXPECT_EQ(report.entries_removed, 4u);
  EXPECT_EQ(report.bytes_after, 0u);
  EXPECT_EQ(runner::CellCache::scan(cache_dir).entries, 0u);
  EXPECT_EQ(runner::CellCache::gc((dir / "nope").string(), 0).entries_before,
            0u);
}

TEST(CellCache, ScanAndGcSkipEntriesWhoseStatusCannotBeRead) {
  // A self-referential symlink named like an entry: stat() fails with
  // ELOOP. scan and gc must skip and count it, not throw or stop the walk.
  const fs::path dir = test_dir();
  const fs::path cache_dir = dir / "cache";
  const auto cells = runner::expand_with_overrides(small_manifest());
  runner::CellCache cache(cache_dir.string());
  const protocol::SimResult result;
  for (std::size_t i = 0; i < 3; ++i)
    cache.publish(cells[i], 200 + i, result, 4.0);
  fs::create_directories(cache_dir / "ab");
  const fs::path loop = cache_dir / "ab" / "loop.jsonl";
  fs::create_symlink("loop.jsonl", loop);

  const auto stats = runner::CellCache::scan(cache_dir.string());
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.unreadable, 1u);
  EXPECT_DOUBLE_EQ(stats.total_wall_ms, 12.0);

  // Cost-model calibration reads the same directory (the fabric planner's
  // --cache path): it must skip the loop too and learn each protocol's
  // scale from the readable entries alone.
  std::map<std::string, std::pair<double, double>> expected;  // units, ms
  for (std::size_t i = 0; i < 3; ++i) {
    expected[cells[i].protocol.name].first +=
        runner::CostModel::estimate_units(cells[i]);
    expected[cells[i].protocol.name].second += 4.0;
  }
  runner::CostModel model;
  model.calibrate_from_cache(cache_dir.string());
  ASSERT_EQ(model.scales().size(), expected.size());
  for (const auto& [name, sums] : expected) {
    SCOPED_TRACE(name);
    EXPECT_DOUBLE_EQ(stats.by_protocol.at(name).units, sums.first);
    EXPECT_DOUBLE_EQ(model.scales().at(name), sums.second / sums.first);
  }

  const auto report = runner::CellCache::gc(cache_dir.string(), 0);
  EXPECT_EQ(report.entries_before, 3u);
  EXPECT_EQ(report.entries_removed, 3u);
  EXPECT_EQ(report.bytes_after, 0u);
  EXPECT_EQ(report.unreadable, 1u);
  EXPECT_TRUE(fs::is_symlink(fs::symlink_status(loop)));  // not an entry

  const auto after = runner::CellCache::scan(cache_dir.string());
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.bytes, 0u);
  EXPECT_EQ(after.unreadable, 1u);
}

// ------------------------------------------------- sweep-session plumbing --

TEST(CellCache, OffColdWarmRunsAreByteIdenticalAndWarmExecutesNothing) {
  const fs::path dir = test_dir();
  const runner::SweepManifest manifest = small_manifest();
  const std::string cache_dir = (dir / "cache").string();

  runner::SweepSession off(manifest, (dir / "off.jsonl").string());
  EXPECT_EQ(off.run(), 16u);

  runner::SweepSession::Options options;
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession cold(manifest, (dir / "cold.jsonl").string(), options);
  cold.run();
  EXPECT_EQ(options.cache->stats().hits, 0u);
  EXPECT_EQ(options.cache->stats().misses, 16u);
  EXPECT_EQ(options.cache->stats().publishes, 16u);

  // Warm rerun: every cell is served from the cache — nothing executes, so
  // nothing republishes — and the per-cell hook still fires for every cell
  // in index order.
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  std::vector<std::size_t> reported;
  options.on_cell_done = [&reported](const runner::ScenarioProgress& p) {
    reported.push_back(p.index);
  };
  runner::SweepSession warm(manifest, (dir / "warm.jsonl").string(), options);
  warm.run();
  EXPECT_EQ(options.cache->stats().hits, 16u);
  EXPECT_EQ(options.cache->stats().misses, 0u);
  EXPECT_EQ(options.cache->stats().publishes, 0u);
  ASSERT_EQ(reported.size(), 16u);
  EXPECT_TRUE(std::is_sorted(reported.begin(), reported.end()));

  const std::string reference = slurp(dir / "off.jsonl");
  EXPECT_EQ(reference, slurp(dir / "cold.jsonl"));
  EXPECT_EQ(reference, slurp(dir / "warm.jsonl"));
}

TEST(CellCache, SabotagedEntriesAreRejectedAndRecomputed) {
  const fs::path dir = test_dir();
  const runner::SweepManifest manifest = small_manifest();
  const std::string cache_dir = (dir / "cache").string();

  runner::SweepSession::Options options;
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession cold(manifest, (dir / "cold.jsonl").string(), options);
  cold.run();
  const std::string reference = slurp(dir / "cold.jsonl");

  // Sabotage four entries four ways: garbage bytes, truncation mid-line, a
  // tampered key (seed edited in place) and a tampered epoch field.
  const std::vector<fs::path> victims = entry_files(cache_dir);
  ASSERT_EQ(victims.size(), 16u);
  spit(victims[0], "not json at all\n");
  spit(victims[1], slurp(victims[1]).substr(0, 40));
  const std::string tampered_key = victims[2].string();
  {
    std::string text = slurp(victims[2]);
    const auto pos = text.find("\"seed\":\"");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 8] = text[pos + 8] == '9' ? '8' : '9';
    spit(victims[2], text);
  }
  {
    std::string text = slurp(victims[3]);
    const auto pos = text.find(runner::kCacheEpoch);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string(runner::kCacheEpoch).size(),
                 "econcast-epoch-X");
    spit(victims[3], text);
  }

  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession rerun(manifest, (dir / "rerun.jsonl").string(),
                             options);
  rerun.run();
  EXPECT_EQ(options.cache->stats().hits, 12u);
  EXPECT_EQ(options.cache->stats().rejected, 4u);
  EXPECT_EQ(options.cache->stats().misses, 0u);
  EXPECT_EQ(options.cache->stats().publishes, 4u);  // sabotaged cells healed
  EXPECT_EQ(reference, slurp(dir / "rerun.jsonl"));

  // The healed entries are valid again.
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession warm(manifest, (dir / "warm.jsonl").string(), options);
  warm.run();
  EXPECT_EQ(options.cache->stats().hits, 16u);
  EXPECT_EQ(reference, slurp(dir / "warm.jsonl"));
}

/// `integer` respelled in scientific notation: "3500" -> "3.500e3".
std::string scientific_spelling(const std::string& integer) {
  if (integer.size() == 1) return integer + "e0";
  return integer.substr(0, 1) + "." + integer.substr(1) + "e" +
         std::to_string(integer.size() - 1);
}

/// The bytes of a results line's "result" member (its last member).
std::string result_bytes(const std::string& line) {
  const std::string marker = ",\"result\":";
  const auto pos = line.find(marker);
  if (pos == std::string::npos || line.back() != '}') return "";
  return line.substr(pos + marker.size(),
                     line.size() - pos - marker.size() - 1);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(CellCache, NonCanonicalEntryIsAHitAndTheLineIsReencoded) {
  // An entry whose result spells a number differently but equally (here
  // "3500" as "3.500e3") still decodes and re-encodes to the canonical
  // bytes, so it is a hit; the results line comes from that re-encoding,
  // never from the stored bytes.
  const fs::path dir = test_dir();
  const runner::SweepManifest manifest = small_manifest();
  const std::string cache_dir = (dir / "cache").string();

  runner::SweepSession off(manifest, (dir / "off.jsonl").string());
  off.run();
  runner::SweepSession::Options options;
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession(manifest, (dir / "cold.jsonl").string(), options)
      .run();

  const auto cells = runner::expand_with_overrides(manifest);
  const std::string victim = options.cache->entry_path(options.cache->cell_key(
      cells[0], runner::manifest_cell_seed(manifest, cells[0], 0)));
  std::string text = slurp(victim);
  const std::string field = "\"measured_window\":";
  const auto at = text.find(field, text.find("\"result\":"));
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = at + field.size();
  const std::size_t end = text.find(',', begin);
  const std::string integer = text.substr(begin, end - begin);
  ASSERT_EQ(integer.find_first_not_of("0123456789"), std::string::npos)
      << integer;
  text.replace(begin, integer.size(), scientific_spelling(integer));
  spit(victim, text);

  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession warm(manifest, (dir / "warm.jsonl").string(), options);
  warm.run();
  EXPECT_EQ(options.cache->stats().hits, 16u);
  EXPECT_EQ(options.cache->stats().rejected, 0u);
  EXPECT_EQ(slurp(dir / "off.jsonl"), slurp(dir / "warm.jsonl"));
  EXPECT_NE(slurp(victim).find(scientific_spelling(integer)),
            std::string::npos);  // the probe left the entry as it was
}

TEST(CellCache, MixedRunReportsTheResultsItWrites) {
  // Rejected entries between hits: the hits before the first miss are
  // written as they are probed, the rest wait behind a recomputed cell.
  // Every cell's on_cell_done result must dump to exactly the "result"
  // bytes of its results line, and results() must match an uncached run.
  const fs::path dir = test_dir();
  const runner::SweepManifest manifest = small_manifest();
  const std::string cache_dir = (dir / "cache").string();

  runner::SweepSession off(manifest, (dir / "off.jsonl").string());
  off.run();
  runner::SweepSession::Options options;
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession(manifest, (dir / "cold.jsonl").string(), options)
      .run();

  const auto cells = runner::expand_with_overrides(manifest);
  for (const std::size_t i : {std::size_t{3}, std::size_t{4}, std::size_t{9},
                              std::size_t{15}})
    spit(options.cache->entry_path(options.cache->cell_key(
             cells[i], runner::manifest_cell_seed(manifest, cells[i], i))),
         "sabotaged\n");

  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  std::vector<std::string> reported(cells.size());
  options.on_cell_done = [&reported](const runner::ScenarioProgress& p) {
    reported[p.index] = util::json::dump(protocol::to_json(*p.result));
  };
  runner::SweepSession mixed(manifest, (dir / "mixed.jsonl").string(),
                             options);
  mixed.run();
  EXPECT_EQ(options.cache->stats().hits, 12u);
  EXPECT_EQ(options.cache->stats().rejected, 4u);

  const std::string written = slurp(dir / "mixed.jsonl");
  EXPECT_EQ(written, slurp(dir / "off.jsonl"));
  const std::vector<std::string> lines = lines_of(written);
  ASSERT_EQ(lines.size(), cells.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(reported[i], result_bytes(lines[i])) << "cell " << i;

  const runner::BatchResult got = mixed.results();
  const runner::BatchResult want = off.results();
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < got.results.size(); ++i)
    EXPECT_EQ(util::json::dump(protocol::to_json(got.results[i])),
              util::json::dump(protocol::to_json(want.results[i])))
        << "cell " << i;
}

TEST(CellCache, ReadOnlyCacheDirectoryDegradesToRecompute) {
  // Publishing into an uncreatable directory must not fail the sweep: the
  // publish hook swallows cache I/O errors and the results file is intact.
  const fs::path dir = test_dir();
  const runner::SweepManifest manifest = small_manifest();
  spit(dir / "blocker", "");  // a *file*, so <dir>/blocker/<..> cannot exist

  runner::SweepSession off(manifest, (dir / "off.jsonl").string());
  off.run();

  runner::SweepSession::Options options;
  options.cache =
      std::make_shared<runner::CellCache>((dir / "blocker" / "c").string());
  runner::SweepSession session(manifest, (dir / "run.jsonl").string(),
                               options);
  EXPECT_EQ(session.run(), 16u);
  EXPECT_EQ(options.cache->stats().publishes, 0u);
  EXPECT_EQ(slurp(dir / "off.jsonl"), slurp(dir / "run.jsonl"));
}

// -------------------------------------------------------------- cost model --

TEST(CostModel, UnitsArePositiveAndGrowWithWork) {
  const auto cells = runner::expand_with_overrides(small_manifest());
  for (const runner::Scenario& cell : cells)
    EXPECT_GT(runner::CostModel::estimate_units(cell), 0.0) << cell.name;

  // More nodes must cost more units for the same protocol family, and a
  // simulated protocol must dwarf an analytic bound at equal N.
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  const model::NodeSet three = model::homogeneous(3, 10.0, 500.0, 500.0);
  const model::NodeSet eight = model::homogeneous(8, 10.0, 500.0, 500.0);
  const runner::Scenario sim3 = {"s3", three, model::Topology::clique(3),
                                 protocol::econcast_spec(cfg)};
  const runner::Scenario sim8 = {"s8", eight, model::Topology::clique(8),
                                 protocol::econcast_spec(cfg)};
  const runner::Scenario bound3 = {
      "b3", three, model::Topology::clique(3),
      protocol::p4_spec(model::Mode::kGroupput, 0.5)};
  EXPECT_GT(runner::CostModel::estimate_units(sim8),
            runner::CostModel::estimate_units(sim3));
  EXPECT_GT(runner::CostModel::estimate_units(sim3),
            runner::CostModel::estimate_units(bound3));

  // Uncalibrated ms estimates preserve the units ordering.
  const runner::CostModel model;
  EXPECT_GT(model.estimate_ms(sim8), model.estimate_ms(sim3));
}

TEST(CostModel, CalibrationLearnsScalesFromCacheEntries) {
  const fs::path dir = test_dir();
  const std::string cache_dir = (dir / "cache").string();
  const auto cells = runner::expand_with_overrides(small_manifest());
  runner::CellCache cache(cache_dir);
  const protocol::SimResult result;
  for (std::size_t i = 0; i < cells.size(); ++i)
    cache.publish(cells[i], 42 + i, result, 3.0);

  runner::CostModel model;
  model.calibrate_from_cache(cache_dir);
  EXPECT_FALSE(model.scales().empty());
  for (const auto& [name, scale] : model.scales())
    EXPECT_GT(scale, 0.0) << name;

  // Missing directory: calibration is a no-op, not an error.
  runner::CostModel blank;
  blank.calibrate_from_cache((dir / "nope").string());
  EXPECT_TRUE(blank.scales().empty());
}

TEST(CostModel, SubmitOrderIsADeterministicLptPermutation) {
  const auto cells = runner::expand_with_overrides(small_manifest());
  const std::vector<std::size_t> order = runner::cost_submit_order(cells);
  ASSERT_EQ(order.size(), cells.size());
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  // Descending units, ties (σ and replicate do not change the cost) by
  // ascending index.
  std::size_t ties = 0;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const double prev = runner::CostModel::estimate_units(cells[order[k - 1]]);
    const double cur = runner::CostModel::estimate_units(cells[order[k]]);
    EXPECT_TRUE(prev > cur || (prev == cur && order[k - 1] < order[k]))
        << "k=" << k;
    if (prev == cur) ++ties;
  }
  EXPECT_GT(ties, 0u);
  EXPECT_NE(order.front(), 0u);  // the expansion does not start longest
  EXPECT_EQ(order, runner::cost_submit_order(cells));
}

// ---------------------------------------------------------- run_with_seeds --

TEST(RunWithSeeds, ValidatesSeedCount) {
  const auto cells = runner::expand_with_overrides(small_manifest());
  const std::vector<runner::Scenario> batch(cells.begin(), cells.begin() + 4);
  const runner::ScenarioRunner r(runner::RunnerOptions{2, 7, true});
  EXPECT_THROW(r.run_with_seeds(batch, {1, 2, 3}), std::invalid_argument);
}

}  // namespace
