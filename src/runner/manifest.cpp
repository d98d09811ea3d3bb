#include "runner/manifest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "protocol/protocol_json.h"

namespace econcast::runner {

namespace {

using util::json::Array;
using util::json::Error;
using util::json::Object;
using util::json::Value;

constexpr const char* kManifestFormat = "econcast-sweep-manifest";
/// Version 1: homogeneous node sets, named topology kinds, "version" key.
/// Version 2: "schema_version" key, node_set objects ("sampled" kind with an
/// h axis + sampling seed) and "edge_list" topology objects.
constexpr int kSchemaVersion = 2;

/// Checked decode of a manifest count or index, capped at 2^32 - 1 (far
/// beyond any sweep): a negative, fractional or huge value becomes a named
/// parse error, not a cast feeding an n×n allocation.
std::size_t count_from_json(const Value& value, const char* what) {
  return util::json::size_from_json(value, what, 4294967295.0);
}

// Shared [[i, j], ...] edge-array codec for the SweepSpec topology form and
// the Scenario topology — one place owns the wire format.

Value edges_to_json(const EdgeList& edges) {
  Array out;
  out.reserve(edges.size());
  for (const auto& [i, j] : edges)
    out.emplace_back(Array{Value(static_cast<double>(i)),
                           Value(static_cast<double>(j))});
  return Value(std::move(out));
}

EdgeList edges_from_json(const Value& value) {
  EdgeList edges;
  edges.reserve(value.as_array().size());
  for (const Value& e : value.as_array()) {
    const Array& pair = e.as_array();
    if (pair.size() != 2) throw Error("topology edge must be a [i, j] pair");
    edges.emplace_back(count_from_json(pair[0], "edge endpoint"),
                       count_from_json(pair[1], "edge endpoint"));
  }
  return edges;
}

Value topology_to_json(const SweepSpec& spec) {
  if (spec.topology_kind() != "edge_list") return Value(spec.topology_kind());
  Object o;
  o.set("kind", "edge_list")
      .set("n", static_cast<double>(spec.edge_list_nodes()))
      .set("edges", edges_to_json(spec.edge_list()));
  return Value(std::move(o));
}

void topology_from_json(const Value& value, SweepSpec& spec) {
  if (value.is_string()) {
    spec.topology(value.as_string());
    return;
  }
  const Object& o = value.as_object();
  const std::string& kind = o.at("kind").as_string();
  if (kind != "edge_list") {
    // Named kinds are also accepted in object form ({"kind": "grid"});
    // unknown kinds fail in the setter with the kind named.
    spec.topology(kind);
    return;
  }
  const std::size_t n = count_from_json(o.at("n"), "edge_list node count");
  spec.topology(n, edges_from_json(o.at("edges")));
}

Value node_set_to_json(const SweepSpec& spec) {
  if (spec.node_set_kind() != "sampled") return Value(spec.node_set_kind());
  Array h;
  h.reserve(spec.heterogeneity_axis().size());
  for (const double v : spec.heterogeneity_axis()) h.emplace_back(v);
  Object o;
  o.set("kind", "sampled")
      .set("h", std::move(h))
      .set("sample_seed", util::json::u64_to_string(spec.sample_seed()));
  return Value(std::move(o));
}

void node_set_from_json(const Value& value, SweepSpec& spec) {
  if (value.is_string()) {
    // The string form covers the kinds that need no parameters; the setter
    // rejects unknown kinds (and "sampled", which needs the object form).
    spec.node_set(value.as_string());
    return;
  }
  const Object& o = value.as_object();
  const std::string& kind = o.at("kind").as_string();
  if (kind != "sampled") {
    spec.node_set(kind);
    return;
  }
  std::vector<double> h_values;
  for (const Value& h : o.at("h").as_array())
    h_values.push_back(h.as_number());
  // Required, like "h": sampled networks must derive from the manifest
  // alone, so a lost seed is corruption, not something to default away.
  spec.sampled_node_set(
      std::move(h_values),
      util::json::u64_from_string(o.at("sample_seed").as_string()));
}

}  // namespace

Value to_json(const PowerPoint& point) {
  Object o;
  o.set("budget", point.budget)
      .set("listen_power", point.listen_power)
      .set("transmit_power", point.transmit_power);
  return Value(std::move(o));
}

PowerPoint power_point_from_json(const Value& value) {
  const Object& o = value.as_object();
  PowerPoint p;
  if (const Value* v = o.find("budget")) p.budget = v->as_number();
  if (const Value* v = o.find("listen_power")) p.listen_power = v->as_number();
  if (const Value* v = o.find("transmit_power"))
    p.transmit_power = v->as_number();
  return p;
}

Value to_json(const SweepSpec& spec) {
  spec.validate();

  Array protocols;
  for (const protocol::ProtocolSpec& p : spec.protocol_axis())
    protocols.push_back(protocol::to_json(p));
  Array modes;
  for (const model::Mode m : spec.mode_axis())
    modes.emplace_back(protocol::mode_to_token(m));
  Array node_counts;
  for (const std::size_t n : spec.node_count_axis())
    node_counts.emplace_back(static_cast<double>(n));
  Array powers;
  for (const PowerPoint& p : spec.power_axis()) powers.push_back(to_json(p));
  Array sigmas;
  for (const double s : spec.sigma_axis()) sigmas.emplace_back(s);

  Object o;
  o.set("name", spec.name())
      .set("protocols", std::move(protocols))
      .set("modes", std::move(modes))
      .set("node_counts", std::move(node_counts))
      .set("powers", std::move(powers))
      .set("sigmas", std::move(sigmas))
      .set("replicates", static_cast<double>(spec.replicate_count()))
      .set("topology", topology_to_json(spec))
      .set("node_set", node_set_to_json(spec));
  return Value(std::move(o));
}

SweepSpec sweep_spec_from_json(const Value& value) {
  const Object& o = value.as_object();
  SweepSpec spec(o.at("name").as_string());
  if (const Value* v = o.find("protocols")) {
    std::vector<protocol::ProtocolSpec> protocols;
    protocols.reserve(v->as_array().size());
    for (const Value& p : v->as_array())
      protocols.push_back(protocol::spec_from_json(p));
    spec.protocols(std::move(protocols));
  }
  if (const Value* v = o.find("modes")) {
    std::vector<model::Mode> modes;
    for (const Value& m : v->as_array())
      modes.push_back(protocol::mode_from_token(m.as_string()));
    spec.modes(std::move(modes));
  }
  if (const Value* v = o.find("node_counts")) {
    std::vector<std::size_t> counts;
    for (const Value& n : v->as_array())
      counts.push_back(count_from_json(n, "node count"));
    spec.node_counts(std::move(counts));
  }
  if (const Value* v = o.find("powers")) {
    std::vector<PowerPoint> powers;
    for (const Value& p : v->as_array())
      powers.push_back(power_point_from_json(p));
    spec.powers(std::move(powers));
  }
  if (const Value* v = o.find("sigmas")) {
    std::vector<double> sigmas;
    for (const Value& s : v->as_array()) sigmas.push_back(s.as_number());
    spec.sigmas(std::move(sigmas));
  }
  if (const Value* v = o.find("replicates"))
    spec.replicates(count_from_json(*v, "replicates"));
  if (const Value* v = o.find("topology")) topology_from_json(*v, spec);
  if (const Value* v = o.find("node_set")) node_set_from_json(*v, spec);
  // Cross-axis checks run here, at parse time, so e.g. a "grid" sweep with a
  // non-square node count is rejected with the offending count named instead
  // of surfacing later from expand().
  spec.validate();
  return spec;
}

Value to_json(const Scenario& scenario) {
  // The round-trip contract is exact re-simulation, which requires the
  // finite, positive node parameters the simulators themselves demand —
  // and a non-finite value would serialize as null and fail only at
  // reload. Reject it here, at the write.
  model::validate(scenario.nodes);
  Array nodes;
  nodes.reserve(scenario.nodes.size());
  for (const model::NodeParams& n : scenario.nodes) {
    Object node;
    node.set("budget", n.budget)
        .set("listen_power", n.listen_power)
        .set("transmit_power", n.transmit_power);
    nodes.emplace_back(std::move(node));
  }

  Object o;
  o.set("name", scenario.name)
      .set("nodes", std::move(nodes))
      .set("topology",
           Object{}
               .set("n", static_cast<double>(scenario.topology.size()))
               .set("edges", edges_to_json(scenario.topology.edges())))
      .set("protocol", protocol::to_json(scenario.protocol));
  return Value(std::move(o));
}

Scenario scenario_from_json(const Value& value) {
  const Object& o = value.as_object();

  model::NodeSet nodes;
  for (const Value& n : o.at("nodes").as_array()) {
    const Object& node = n.as_object();
    nodes.push_back(model::NodeParams{node.at("budget").as_number(),
                                      node.at("listen_power").as_number(),
                                      node.at("transmit_power").as_number()});
  }

  const Object& topo = o.at("topology").as_object();
  const std::size_t n = count_from_json(topo.at("n"), "topology node count");

  return Scenario{o.at("name").as_string(), std::move(nodes),
                  model::Topology::from_edges(n,
                                              edges_from_json(
                                                  topo.at("edges"))),
                  protocol::spec_from_json(o.at("protocol"))};
}

Value to_json(const SweepManifest& manifest) {
  Object runner;
  runner.set("base_seed", util::json::u64_to_string(manifest.base_seed))
      .set("reseed", manifest.reseed);
  Object o;
  o.set("format", kManifestFormat)
      .set("schema_version", kSchemaVersion)
      .set("sweep", to_json(manifest.spec))
      .set("runner", std::move(runner));
  return Value(std::move(o));
}

SweepManifest manifest_from_json(const Value& value) {
  const Object& o = value.as_object();
  if (const Value* format = o.find("format")) {
    if (format->as_string() != kManifestFormat)
      throw Error("not a sweep manifest (format '" + format->as_string() +
                  "')");
  }
  // "schema_version" is the current key; version-1 files wrote "version".
  // Anything this build does not understand — newer, fractional, absent, or
  // simply unknown — is rejected before any field is interpreted, so a
  // manifest from a future schema (or one whose version key was renamed
  // again) never half-parses into the wrong sweep.
  const Value* version = o.find("schema_version");
  if (version == nullptr) version = o.find("version");
  if (version == nullptr)
    throw Error("manifest has no schema_version (this build writes " +
                std::to_string(kSchemaVersion) + ")");
  const double v = version->as_number();
  if (v != 1.0 && v != static_cast<double>(kSchemaVersion))
    throw Error("manifest schema_version " + util::json::format_double(v) +
                " is not understood by this build (supported: 1.." +
                std::to_string(kSchemaVersion) + ")");
  SweepManifest manifest(sweep_spec_from_json(o.at("sweep")));
  if (const Value* runner = o.find("runner")) {
    const Object& r = runner->as_object();
    if (const Value* seed = r.find("base_seed"))
      manifest.base_seed = util::json::u64_from_string(seed->as_string());
    if (const Value* reseed = r.find("reseed"))
      manifest.reseed = reseed->as_bool();
  }
  return manifest;
}

void write_manifest(const SweepManifest& manifest, const std::string& path) {
  const std::string text = util::json::dump(to_json(manifest), 2) + "\n";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write '" + tmp + "'");
    out << text;
    if (!out.flush())
      throw std::runtime_error("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot rename '" + tmp + "' to '" + path + "'");
}

SweepManifest load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read manifest '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return manifest_from_json(util::json::parse(buffer.str()));
}

}  // namespace econcast::runner
