// econcast_sweep — run any JSON sweep manifest end-to-end with
// checkpoint/resume, as one shard of a distributed (fabric) sweep, or as
// the merge step that combines shard files into the canonical results.
//
//   econcast_sweep <manifest.json> [--results PATH] [--threads N]
//                  [--limit N] [--cache DIR|off] [--order NAME] [--fresh]
//                  [--progress] [--quiet]
//   econcast_sweep <manifest.json> --dry-run
//   econcast_sweep <manifest.json> --shard I/K [--worker-id ID] [--threads N]
//                  [--limit N] [--cache DIR|off] [--progress]
//   econcast_sweep <manifest.json> --merge [--shards K] [--results PATH]
//
// Completed cells stream to the results JSONL next to the manifest (or
// --results). Re-running the same command resumes: the completed prefix is
// loaded, a partially written trailing line (from a kill) is truncated, and
// only the remaining cells execute — the final file is byte-identical to an
// uninterrupted run. --limit N checkpoints after N new cells and exits,
// which is how CI exercises the kill/resume path deterministically.
//
// --shard I/K claims shard I of a K-way split (src/fabric): the shard's
// cells stream to <manifest>.fabric/shard-I-of-K.jsonl under a heartbeating
// claim file, and kill/resume works per shard exactly as it does for whole
// sweeps. --merge validates and concatenates the shard files into the
// canonical results file, byte-identical to a single-process run. See the
// README's "Distributed sweeps" section and tools/econcast_fabricd.cpp for
// the coordinator that automates planning, reassignment and merging.
//
// Exit codes (workers and spool scripts key retry decisions off these):
//   0  success (including a --shard no-op on an already-complete shard)
//   1  runtime failure — a cell failed, results/claim I/O failed, the shard
//      was busy or reassigned mid-run; the checkpoint is intact, retryable
//   2  usage error — bad flags; nothing was read or written
//   3  manifest failure — the file named in the message is unreadable,
//      unparsable or invalid; retrying cannot succeed
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/merger.h"
#include "fabric/shard_plan.h"
#include "fabric/worker.h"
#include "protocol/protocol_json.h"
#include "runner/cell_cache.h"
#include "runner/cost_model.h"
#include "runner/sweep_session.h"
#include "util/json.h"

namespace {

enum ExitCode : int {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
  kExitManifest = 3,
};

/// Wall clock for progress rates, ETAs and summary lines. Telemetry only:
/// no result byte ever depends on it.
double telemetry_now_s() {
  using clock = std::chrono::steady_clock;  // NOLINT-DETERMINISM(wall-clock): telemetry display only, never results
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <manifest.json> [--results PATH] [--threads N]\n"
      "       [--limit N] [--cache DIR|off] [--order NAME]\n"
      "       [--fresh] [--progress] [--quiet]\n"
      "   or: %s <manifest.json> --dry-run\n"
      "   or: %s <manifest.json> --shard I/K [--worker-id ID] [options]\n"
      "   or: %s <manifest.json> --merge [--shards K] [--results PATH]\n"
      "   or: %s cache-stats <dir>\n"
      "   or: %s cache-gc <dir> --max-bytes N\n"
      "\n"
      "  --results PATH  results JSONL (default: manifest path with\n"
      "                  .json replaced by .results.jsonl); with --merge,\n"
      "                  where the merged file is written\n"
      "  --threads N     cap worker threads (default: all cores)\n"
      "  --limit N       stop after N newly completed cells; rerun\n"
      "                  to resume from the checkpoint\n"
      "  --cache DIR     content-addressed result cache: cells already in\n"
      "                  DIR skip execution, new cells are published; the\n"
      "                  results file is byte-identical either way\n"
      "                  ('off', the default, disables caching)\n"
      "  --order NAME    submission order for pending cells: expansion\n"
      "                  (default) or cost (longest-expected-first per the\n"
      "                  calibrated cost model; same results, smaller\n"
      "                  makespan on skewed sweeps)\n"
      "  --fresh         discard an existing results file first\n"
      "  --progress      print a line per completed cell to stderr\n"
      "  --quiet         suppress the completion summary\n"
      "  --dry-run       parse + validate the manifest, print the cell\n"
      "                  count and axes, execute nothing\n"
      "  --shard I/K     run only shard I (0-based) of a K-way split,\n"
      "                  claiming <manifest>.fabric/shard-I-of-K under a\n"
      "                  heartbeat lease\n"
      "  --worker-id ID  id recorded in the shard claim (default pid-<pid>)\n"
      "  --merge         validate + concatenate all shard files into the\n"
      "                  canonical results file\n"
      "  --shards K      shard count for --merge when no plan.json exists\n"
      "  cache-stats     print entry count, bytes and per-protocol\n"
      "                  breakdown of a cache directory\n"
      "  cache-gc        delete oldest entries until the cache directory\n"
      "                  is within --max-bytes\n"
      "\n"
      "exit codes: 0 ok, 1 runtime failure (retryable), 2 usage,\n"
      "            3 manifest parse/validate failure (fatal)\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
  std::exit(kExitUsage);
}

bool parse_size(const char* text, std::size_t& out) {
  // strtoull alone is not enough here: it skips leading whitespace, accepts
  // a sign ("-1" silently wraps to 2^64-1 — a huge --threads cap), and
  // saturates on overflow with only errno raised. Require plain decimal
  // digits and reject out-of-range values.
  if (text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::size_t>(v);
  return static_cast<unsigned long long>(out) == v;  // 32-bit size_t
}

/// "I/K" with 0 <= I < K.
bool parse_shard(const char* text, std::size_t& shard, std::size_t& count) {
  const char* slash = std::strchr(text, '/');
  if (slash == nullptr) return false;
  const std::string left(text, slash);
  if (!parse_size(left.c_str(), shard) || !parse_size(slash + 1, count))
    return false;
  return count > 0 && shard < count;
}

std::string join_doubles(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ", ";
    out += econcast::util::json::format_double(v);
  }
  return out;
}

void print_dry_run(const std::string& manifest_path,
                   const econcast::runner::SweepManifest& manifest) {
  using econcast::protocol::mode_to_token;
  const econcast::runner::SweepSpec& spec = manifest.spec;
  std::printf("manifest: %s\n", manifest_path.c_str());
  std::printf("sweep '%s': %zu cells\n", spec.name().c_str(),
              spec.cell_count());

  std::string protocols;
  for (const auto& p : spec.protocol_axis()) {
    if (!protocols.empty()) protocols += ", ";
    protocols += p.name;
  }
  std::printf("  protocols:   %s (%zu)\n", protocols.c_str(),
              spec.protocol_axis().size());

  std::string modes;
  for (const auto m : spec.mode_axis()) {
    if (!modes.empty()) modes += ", ";
    modes += mode_to_token(m);
  }
  std::printf("  modes:       %s (%zu)\n", modes.c_str(),
              spec.mode_axis().size());

  std::string counts;
  for (const std::size_t n : spec.node_count_axis()) {
    if (!counts.empty()) counts += ", ";
    counts += std::to_string(n);
  }
  std::printf("  node_counts: %s (%zu)\n", counts.c_str(),
              spec.node_count_axis().size());

  std::string powers;
  for (const auto& p : spec.power_axis()) {
    if (!powers.empty()) powers += ", ";
    powers += "(rho " + econcast::util::json::format_double(p.budget) +
              ", L " + econcast::util::json::format_double(p.listen_power) +
              ", X " + econcast::util::json::format_double(p.transmit_power) +
              ")";
  }
  std::printf("  powers:      %s (%zu)\n", powers.c_str(),
              spec.power_axis().size());

  if (spec.node_set_kind() == "sampled")
    std::printf("  h:           %s (%zu)\n",
                join_doubles(spec.heterogeneity_axis()).c_str(),
                spec.heterogeneity_axis().size());

  std::printf("  sigmas:      %s (%zu)\n",
              join_doubles(spec.sigma_axis()).c_str(),
              spec.sigma_axis().size());
  std::printf("  replicates:  %zu\n", spec.replicate_count());
  std::printf("  topology:    %s\n", spec.topology_kind().c_str());
  std::printf("  node_set:    %s\n", spec.node_set_kind().c_str());
  std::printf("  seeding:     base_seed %s, reseed %s\n",
              econcast::util::json::u64_to_string(manifest.base_seed).c_str(),
              manifest.reseed ? "true" : "false");
}

int cache_stats_main(int argc, char** argv) {
  if (argc != 3 || argv[2][0] == '-') usage(argv[0]);
  const std::string dir = argv[2];
  const econcast::runner::CellCache::DirStats stats =
      econcast::runner::CellCache::scan(dir);
  std::printf("cache %s: %zu entries, %llu bytes\n", dir.c_str(),
              stats.entries, static_cast<unsigned long long>(stats.bytes));
  for (const auto& [name, count] : stats.entries_by_protocol)
    std::printf("  %-14s %zu entries\n", name.c_str(), count);
  std::printf("recorded compute: %.3f s of cell wall clock\n",
              stats.total_wall_ms / 1000.0);
  return kExitOk;
}

int cache_gc_main(int argc, char** argv) {
  std::string dir;
  std::size_t max_bytes = 0;
  bool have_max = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-bytes") == 0) {
      if (i + 1 >= argc || !parse_size(argv[++i], max_bytes)) usage(argv[0]);
      have_max = true;
    } else if (argv[i][0] == '-' || !dir.empty()) {
      usage(argv[0]);
    } else {
      dir = argv[i];
    }
  }
  if (dir.empty() || !have_max) usage(argv[0]);
  const econcast::runner::CellCache::GcReport report =
      econcast::runner::CellCache::gc(dir, max_bytes);
  std::printf("cache %s: removed %zu of %zu entries (%llu -> %llu bytes)\n",
              dir.c_str(), report.entries_removed, report.entries_before,
              static_cast<unsigned long long>(report.bytes_before),
              static_cast<unsigned long long>(report.bytes_after));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace econcast;

  if (argc >= 2) {
    // Cache maintenance subcommands take no manifest; dispatch before flag
    // parsing.
    if (std::strcmp(argv[1], "cache-stats") == 0)
      return cache_stats_main(argc, argv);
    if (std::strcmp(argv[1], "cache-gc") == 0)
      return cache_gc_main(argc, argv);
  }

  std::string manifest_path;
  std::string results_path;
  std::string worker_id;
  std::string cache_dir;  // empty = caching off
  bool cost_order = false;
  bool order_set = false;
  std::size_t threads = 0;
  std::size_t limit = 0;
  std::size_t shard = 0;
  std::size_t shard_count = 0;  // 0: not sharded
  std::size_t merge_shards = 0;
  bool fresh = false;
  bool progress = false;
  bool quiet = false;
  bool dry_run = false;
  bool merge = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(arg, "--results") == 0) {
      results_path = value();
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!parse_size(value(), threads)) usage(argv[0]);
    } else if (std::strcmp(arg, "--limit") == 0) {
      if (!parse_size(value(), limit)) usage(argv[0]);
    } else if (std::strcmp(arg, "--shard") == 0) {
      if (!parse_shard(value(), shard, shard_count)) usage(argv[0]);
    } else if (std::strcmp(arg, "--shards") == 0) {
      if (!parse_size(value(), merge_shards) || merge_shards == 0)
        usage(argv[0]);
    } else if (std::strcmp(arg, "--worker-id") == 0) {
      worker_id = value();
    } else if (std::strcmp(arg, "--cache") == 0) {
      cache_dir = value();
      if (cache_dir.empty()) usage(argv[0]);
      if (cache_dir == "off") cache_dir.clear();
    } else if (std::strcmp(arg, "--order") == 0) {
      const char* order = value();
      if (std::strcmp(order, "cost") == 0)
        cost_order = true;
      else if (std::strcmp(order, "expansion") == 0)
        cost_order = false;
      else
        usage(argv[0]);
      order_set = true;
    } else if (std::strcmp(arg, "--fresh") == 0) {
      fresh = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      progress = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(arg, "--merge") == 0) {
      merge = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "econcast_sweep: unknown option '%s'\n", arg);
      usage(argv[0]);
    } else if (manifest_path.empty()) {
      manifest_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (manifest_path.empty()) usage(argv[0]);
  const bool sharded = shard_count > 0;
  // The four modes are mutually exclusive, and per-mode flags do not mix:
  // --fresh/--results target the whole-sweep results file, which a shard
  // does not own, and --merge executes nothing.
  if ((dry_run ? 1 : 0) + (sharded ? 1 : 0) + (merge ? 1 : 0) > 1)
    usage(argv[0]);
  if (sharded && (fresh || !results_path.empty())) usage(argv[0]);
  if (merge && (fresh || limit > 0 || !cache_dir.empty() || order_set))
    usage(argv[0]);
  if (dry_run && (fresh || limit > 0 || !results_path.empty() ||
                  !cache_dir.empty() || order_set))
    usage(argv[0]);
  if (results_path.empty() && !sharded)
    results_path = runner::SweepSession::default_results_path(manifest_path);

  // Stage 1 — everything that can only fail because of the manifest file
  // itself. A failure here is fatal for this manifest: exit 3, offender
  // named.
  runner::SweepManifest manifest{runner::SweepSpec("unloaded")};
  try {
    manifest = runner::load_manifest(manifest_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "econcast_sweep: manifest '%s': %s\n",
                 manifest_path.c_str(), e.what());
    return kExitManifest;
  }

  if (dry_run) {
    print_dry_run(manifest_path, manifest);
    return kExitOk;
  }

  // Stage 2 — execution. Failures here leave a valid checkpoint behind and
  // are retryable: exit 1, offender named.
  try {
    if (merge) {
      const fabric::Merger::Report report =
          merge_shards > 0
              ? fabric::Merger::merge(manifest_path, merge_shards,
                                      results_path)
              : fabric::Merger::merge(manifest_path, results_path);
      if (!quiet)
        std::printf("merged %zu shards, %zu cells -> %s\n",
                    report.shard_count, report.cells,
                    report.merged_path.c_str());
      return kExitOk;
    }

    if (sharded) {
      fabric::Worker::Options options;
      options.worker_id = worker_id;
      options.num_threads = threads;
      options.limit = limit;
      options.cache_dir = cache_dir;
      if (progress) {
        options.on_cell_done = [](const runner::ScenarioProgress& p) {
          std::fprintf(stderr, "[%zu/%zu] cell %zu %s\n", p.done, p.total,
                       p.index, p.scenario->name.c_str());
        };
      }
      fabric::Worker worker(manifest_path, shard, shard_count, options);
      const fabric::Worker::Outcome outcome = worker.run();
      if (!quiet) {
        const char* status =
            outcome.status == fabric::Worker::Outcome::Status::kShardBusy
                ? "busy (another worker holds the claim)"
            : outcome.status ==
                    fabric::Worker::Outcome::Status::kAlreadyComplete
                ? "already complete"
                : (outcome.shard_complete ? "complete" : "checkpointed");
        std::printf(
            "shard %zu/%zu of '%s': %s — %zu/%zu cells (%zu resumed, "
            "%zu run)\n",
            shard, shard_count, manifest.spec.name().c_str(), status,
            outcome.resumed + outcome.ran, outcome.shard_cells,
            outcome.resumed, outcome.ran);
        std::printf("results: %s\n", outcome.results_path.c_str());
      }
      // A busy shard ran nothing: report it as retryable so spool scripts
      // distinguish "try again later" from a completed shard.
      return outcome.status == fabric::Worker::Outcome::Status::kShardBusy
                 ? kExitRuntime
                 : kExitOk;
    }

    if (fresh) std::remove(results_path.c_str());

    runner::SweepSession::Options options;
    options.num_threads = threads;
    if (!cache_dir.empty())
      options.cache = std::make_shared<runner::CellCache>(cache_dir);
    options.order = cost_order ? runner::SweepSession::SubmitOrder::kCost
                               : runner::SweepSession::SubmitOrder::kExpansion;
    if (progress) {
      // Cost-model ETA: cells flush in index order, so after cell p.index
      // the completed work is exactly the expansion prefix [0, p.index] and
      // prefix sums of the per-cell cost estimates give done/remaining
      // units directly. The model self-calibrates against this run — ETA =
      // elapsed × remaining/done units — so no absolute ms-per-unit scale
      // is needed.
      struct EtaState {
        std::vector<double> prefix;  // estimate-unit prefix sums
        double start_s = 0.0;
        double first_units = -1.0;  // prefix already done when run started
        std::size_t cells_this_run = 0;
      };
      auto eta = std::make_shared<EtaState>();
      const std::vector<runner::Scenario> cells =
          runner::expand_with_overrides(manifest);
      eta->prefix.resize(cells.size() + 1, 0.0);
      for (std::size_t i = 0; i < cells.size(); ++i)
        eta->prefix[i + 1] =
            eta->prefix[i] + runner::CostModel::estimate_units(cells[i]);
      eta->start_s = telemetry_now_s();
      options.on_cell_done = [eta](const runner::ScenarioProgress& p) {
        if (eta->first_units < 0.0) eta->first_units = eta->prefix[p.index];
        ++eta->cells_this_run;
        const double elapsed = telemetry_now_s() - eta->start_s;
        const double done_units =
            eta->prefix[p.index + 1] - eta->first_units;
        const double remaining_units =
            eta->prefix.back() - eta->prefix[p.index + 1];
        const double eta_s = done_units > 0.0 && elapsed > 0.0
                                 ? elapsed * remaining_units / done_units
                                 : 0.0;
        const double rate =
            elapsed > 0.0
                ? static_cast<double>(eta->cells_this_run) / elapsed
                : 0.0;
        std::fprintf(stderr, "[%zu/%zu] %s (%.1f cells/s, ETA %.0fs)\n",
                     p.done, p.total, p.scenario->name.c_str(), rate, eta_s);
      };
    }

    const double started_s = telemetry_now_s();
    runner::SweepSession session(std::move(manifest), results_path, options);
    const std::size_t resumed = session.completed_cells();
    const std::size_t ran = session.run(limit);
    const double elapsed_s = telemetry_now_s() - started_s;

    if (!quiet) {
      std::printf("sweep '%s': %zu/%zu cells complete (%zu resumed, %zu run)\n",
                  session.manifest().spec.name().c_str(),
                  session.completed_cells(), session.cell_count(), resumed,
                  ran);
      if (ran > 0 && elapsed_s > 0.0)
        std::printf("throughput: %zu cells in %.2fs (%.1f cells/s)\n", ran,
                    elapsed_s, static_cast<double>(ran) / elapsed_s);
      if (session.cache() != nullptr) {
        const runner::CellCache::Stats& cs = session.cache()->stats();
        std::printf("cache: %zu hits, %zu misses, %zu rejected, "
                    "%zu published (%s)\n",
                    cs.hits, cs.misses, cs.rejected, cs.publishes,
                    session.cache()->dir().c_str());
      }
      std::printf("results: %s\n", session.results_path().c_str());
      if (session.complete()) {
        const runner::BatchResult all = session.results();
        std::printf(
            "summary: groupput mean %.6g (stddev %.3g), anyput mean %.6g, "
            "mean node power %.6g\n",
            all.summary.groupput.mean(), all.summary.groupput.stddev(),
            all.summary.anyput.mean(), all.summary.node_power.mean());
      } else {
        std::printf("checkpointed early (--limit %zu); rerun to resume\n",
                    limit);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "econcast_sweep: manifest '%s': %s\n",
                 manifest_path.c_str(), e.what());
    return kExitRuntime;
  }
  return kExitOk;
}
