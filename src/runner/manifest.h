// JSON sweep manifests: the serialized form of a whole sweep, so the
// paper's figures are data files rather than C++ — a manifest names the
// SweepSpec axes plus the runner seeding policy, and `econcast_sweep`
// (tools/) executes any manifest end-to-end with checkpoint/resume
// (runner/sweep_session.h).
//
// Serializable specs are the declarative subset: named topology kinds
// ("clique"/"line"/"ring"/"grid"), explicit "edge_list" graphs, and the
// named node-set kinds ("homogeneous", and "sampled" — the §VII-B
// heterogeneity process with its h axis and sampling seed). Installing a
// custom topology/node-set std::function on a SweepSpec makes to_json throw
// — those sweeps stay code.
//
// Manifests carry a schema_version (currently 2; version 1 files, which
// predate node-set objects and edge lists, still load). Unknown versions
// are rejected up front so a newer manifest never half-parses into the
// wrong sweep. Members this build does not read are ignored, so manifests
// that older builds wrote with execution-policy fields still load.
//
// Scenario round-trips are exact: nodes, topology edges and the
// ProtocolSpec all survive, so scenario_from_json(to_json(s)) runs
// bit-identically to s.
#ifndef ECONCAST_RUNNER_MANIFEST_H
#define ECONCAST_RUNNER_MANIFEST_H

#include <cstdint>
#include <string>

#include "runner/scenario_runner.h"
#include "runner/sweep_spec.h"
#include "util/json.h"

namespace econcast::runner {

/// A sweep as a file: the declarative spec plus the batch seeding policy.
struct SweepManifest {
  SweepSpec spec;
  std::uint64_t base_seed = 1;
  /// false: every cell runs with its protocol's own embedded seed (see
  /// protocol::effective_seed) instead of derive_seed(base_seed, index).
  bool reseed = true;

  explicit SweepManifest(SweepSpec sweep_spec, std::uint64_t seed = 1,
                         bool reseed_cells = true)
      : spec(std::move(sweep_spec)), base_seed(seed), reseed(reseed_cells) {}
};

util::json::Value to_json(const PowerPoint& point);
PowerPoint power_point_from_json(const util::json::Value& value);

util::json::Value to_json(const SweepSpec& spec);
SweepSpec sweep_spec_from_json(const util::json::Value& value);

util::json::Value to_json(const Scenario& scenario);
Scenario scenario_from_json(const util::json::Value& value);

util::json::Value to_json(const SweepManifest& manifest);
SweepManifest manifest_from_json(const util::json::Value& value);

/// Writes the manifest pretty-printed to `path` (atomically: temp file +
/// rename). Throws std::runtime_error on I/O failure.
void write_manifest(const SweepManifest& manifest, const std::string& path);

/// Parses a manifest file. Throws util::json::Error on malformed content,
/// std::runtime_error when the file cannot be read.
SweepManifest load_manifest(const std::string& path);

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_MANIFEST_H
