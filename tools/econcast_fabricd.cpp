// econcast_fabricd — the sweep-fabric coordinator daemon.
//
//   econcast_fabricd <spool-dir> [--shards K] [--lease SEC]
//                    [--interval SEC] [--once] [--quiet]
//
// Watches a spool directory for `*.manifest.json` files and, each pass,
// for every manifest: pins the K-way shard plan (plan.json), releases
// shard claims whose worker heartbeat is older than the lease (the shard
// becomes claimable again and the next `econcast_sweep --shard` resumes it
// from its checkpoint), and — once every shard's results file is complete —
// merges the shard files into the canonical `<manifest>.results.jsonl`,
// byte-identical to a single-process run. The daemon holds no state between
// passes (everything lives in the fabric directories), so it can be killed
// and restarted freely. `--once` runs a single pass and exits: the
// deterministic mode CI drives step by step.
//
// Each pass prints one status line per healthy manifest on stdout and one
// error per failed manifest on stderr. Exit codes match econcast_sweep:
// 0 ok, 1 runtime failure (a manifest or the pass failed; rerunning may
// succeed), 2 usage.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.h"

namespace {

enum ExitCode : int {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <spool-dir> [--shards K] [--lease SEC] [--interval SEC]\n"
      "       [--cache DIR] [--once] [--quiet]\n"
      "\n"
      "  --shards K      shards per manifest for newly pinned plans\n"
      "                  (default 3; already-pinned plans keep their count)\n"
      "  --cache DIR     result-cache directory: newly pinned plans are\n"
      "                  cost-balanced (shards carry equal estimated\n"
      "                  remaining cost, cached cells count as zero)\n"
      "                  instead of equal-split; already-pinned plans keep\n"
      "                  their bounds\n"
      "  --lease SEC     heartbeat lease: a claim this stale is released\n"
      "                  and its shard reassigned (default 300; 0 treats\n"
      "                  every claim as stale — deterministic for CI)\n"
      "  --interval SEC  seconds between passes in daemon mode (default 5)\n"
      "  --once          run exactly one pass, then exit\n"
      "  --quiet         suppress per-manifest status lines\n",
      argv0);
  std::exit(kExitUsage);
}

bool parse_u64(const char* text, unsigned long long& out) {
  if (text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return *end == '\0' && errno != ERANGE;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace econcast;

  std::string spool_dir;
  fabric::Coordinator::Options options;
  unsigned long long interval_seconds = 5;
  bool once = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    unsigned long long parsed = 0;
    if (std::strcmp(arg, "--shards") == 0) {
      if (!parse_u64(value(), parsed) || parsed == 0) usage(argv[0]);
      options.shard_count = static_cast<std::size_t>(parsed);
    } else if (std::strcmp(arg, "--lease") == 0) {
      if (!parse_u64(value(), parsed)) usage(argv[0]);
      options.lease_seconds = static_cast<std::int64_t>(parsed);
    } else if (std::strcmp(arg, "--interval") == 0) {
      if (!parse_u64(value(), parsed)) usage(argv[0]);
      interval_seconds = parsed;
    } else if (std::strcmp(arg, "--cache") == 0) {
      options.cache_dir = value();
      if (options.cache_dir.empty()) usage(argv[0]);
    } else if (std::strcmp(arg, "--once") == 0) {
      once = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      usage(argv[0]);
    } else if (spool_dir.empty()) {
      spool_dir = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (spool_dir.empty()) usage(argv[0]);

  fabric::Coordinator coordinator(spool_dir, options);
  for (;;) {
    bool failed = false;
    try {
      for (const auto& s : coordinator.pass()) {
        if (!s.error.empty()) {
          failed = true;
          std::fprintf(stderr,
                       "econcast_fabricd: spool '%s': manifest '%s': %s\n",
                       spool_dir.c_str(), s.manifest_path.c_str(),
                       s.error.c_str());
        } else if (!quiet) {
          std::printf(
              "%s: %zu/%zu cells, %zu/%zu shards complete, %zu claimed, "
              "%zu reassigned%s%s\n",
              s.manifest_path.c_str(), s.cells_done, s.total_cells,
              s.shards_complete, s.shard_count, s.shards_claimed,
              s.shards_reassigned, s.plan_pinned ? ", plan pinned" : "",
              s.merged ? ", merged" : "");
        }
      }
      std::fflush(stdout);
    } catch (const std::exception& e) {
      failed = true;
      std::fprintf(stderr, "econcast_fabricd: spool '%s': %s\n",
                   spool_dir.c_str(), e.what());
    }
    // Daemon mode rides out transient failures (a manifest still being
    // copied in, NFS hiccups) and retries next pass.
    if (once) return failed ? kExitRuntime : kExitOk;
    std::this_thread::sleep_for(std::chrono::seconds(interval_seconds));
  }
}
