// Shared helpers for the benchmark harnesses. Every bench binary regenerates
// one table or figure of the paper and prints (a) the measured rows and (b)
// a `paper:` reference line with the values/claims the paper states, so the
// reproduction can be eyeballed in one pass. The sweep-shaped benches
// additionally emit their sweeps as JSON manifests and execute them through
// runner::SweepSession (progress on stderr, tables on stdout), so every
// figure doubles as an `econcast_sweep`-runnable data file.
#ifndef ECONCAST_BENCH_BENCH_COMMON_H
#define ECONCAST_BENCH_BENCH_COMMON_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"

namespace econcast::bench {

/// Standard banner: what is being reproduced and from where.
inline void banner(const char* experiment, const char* description) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("(Chen, Ghaderi, Rubenstein, Zussman, CoNEXT'16 / arXiv:1610.04203)\n");
  std::printf("================================================================\n");
}

/// A bench's command line: at most one positional workload knob (a
/// positive decimal integer) plus the flags the bench declares — "--name="
/// for a flag that takes a value (only the '=' form, so a value can never
/// be mistaken for the knob), "--name" for a bare switch. Anything else —
/// junk or a second positional, an undeclared flag, a declared flag in the
/// wrong form — exits 2 naming the token, so a typo never silently runs the
/// default workload. Every bench accepts the knob (benches with a fixed
/// workload ignore it), so one smoke loop can drive them all.
class Args {
 public:
  Args(int argc, char** argv, std::vector<std::string> flags = {})
      : flags_(std::move(flags)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.empty() || arg[0] != '-') {
        if (have_knob_ || !parse_knob(arg))
          fail(argv[0], arg, have_knob_ ? "unexpected extra argument"
                                        : "the workload knob must be a "
                                          "positive integer");
        have_knob_ = true;
        continue;
      }
      if (!declared(arg)) fail(argv[0], arg, "unknown option");
      given_.push_back(arg);
    }
  }

  /// The positional knob, or `def` when none was given.
  long knob(long def) const { return have_knob_ ? knob_ : def; }

  /// The value of the declared "--name=value" flag `name` (spelled without
  /// the '='), or `def` when absent.
  std::string value(const std::string& name,
                    const std::string& def = "") const {
    const std::string prefix = name + "=";
    for (const std::string& arg : given_)
      if (arg.compare(0, prefix.size(), prefix) == 0)
        return arg.substr(prefix.size());
    return def;
  }

  /// True when the declared bare switch `name` was given.
  bool has(const std::string& name) const {
    for (const std::string& arg : given_)
      if (arg == name) return true;
    return false;
  }

 private:
  bool declared(const std::string& arg) const {
    for (const std::string& f : flags_) {
      const bool takes_value = !f.empty() && f.back() == '=';
      if (takes_value ? arg.compare(0, f.size(), f) == 0 : arg == f)
        return true;
    }
    return false;
  }

  bool parse_knob(const std::string& arg) {
    if (arg.empty() || arg.find_first_not_of("0123456789") != std::string::npos)
      return false;
    errno = 0;
    const long v = std::strtol(arg.c_str(), nullptr, 10);
    if (errno == ERANGE || v <= 0) return false;
    knob_ = v;
    return true;
  }

  [[noreturn]] static void fail(const char* argv0, const std::string& arg,
                                const char* why) {
    std::fprintf(stderr, "%s: %s: '%s'\n", argv0, why, arg.c_str());
    std::exit(2);
  }

  std::vector<std::string> flags_;
  std::vector<std::string> given_;
  long knob_ = 0;
  bool have_knob_ = false;
};

/// Directory the sweep-shaped benches write manifests/results into:
/// --manifest-dir=DIR if given (declare "--manifest-dir=" in the bench's
/// Args), else <temp>/<default_name>. Created on demand.
inline std::string manifest_dir(const Args& args, const char* default_name) {
  std::string dir = args.value("--manifest-dir");
  if (dir.empty())
    dir = (std::filesystem::temp_directory_path() / default_name).string();
  std::filesystem::create_directories(dir);
  return dir;
}

/// Progress hook for the long sweeps: "[label] done/total name" on stderr
/// (stdout stays reserved for the tables) every `every` completions and at
/// the end. every == 0 picks roughly one line per eighth of the batch.
inline std::function<void(const runner::ScenarioProgress&)> progress_printer(
    std::string label, std::size_t every = 0) {
  return [label = std::move(label),
          every](const runner::ScenarioProgress& p) mutable {
    std::size_t stride = every;
    if (stride == 0) stride = p.total > 8 ? p.total / 8 : 1;
    if (p.done % stride == 0 || p.done == p.total)
      std::fprintf(stderr, "[%s] %zu/%zu %s\n", label.c_str(), p.done,
                   p.total, p.scenario->name.c_str());
  };
}

/// Emits `spec` as "<dir>/<name>.manifest.json", executes it through a fresh
/// SweepSession (stale results are discarded — benches always recompute),
/// and returns the aggregated batch. The manifest file stays behind so the
/// same sweep can be re-run or resumed standalone:
///   econcast_sweep <dir>/<name>.manifest.json
inline runner::BatchResult run_manifest_sweep(
    const std::string& dir, const std::string& name,
    const runner::SweepSpec& spec, std::uint64_t base_seed,
    bool reseed = true,
    std::shared_ptr<exec::Executor> executor = nullptr) {
  const std::string manifest_path = dir + "/" + name + ".manifest.json";
  const std::string results_path = dir + "/" + name + ".results.jsonl";
  const runner::SweepManifest manifest(spec, base_seed, reseed);
  runner::write_manifest(manifest, manifest_path);
  std::remove(results_path.c_str());

  runner::SweepSession::Options options;
  options.executor = std::move(executor);
  options.on_cell_done = progress_printer(name);
  runner::SweepSession session(manifest, results_path, options);
  std::fprintf(stderr, "[%s] manifest: %s (%zu cells)\n", name.c_str(),
               manifest_path.c_str(), session.cell_count());
  session.run();
  return session.results();
}

}  // namespace econcast::bench

#endif  // ECONCAST_BENCH_BENCH_COMMON_H
