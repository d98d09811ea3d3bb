#include "protocol/protocol.h"

#include <stdexcept>
#include <utility>

namespace econcast::protocol {

double SimResult::extra(const std::string& key, double fallback) const {
  const auto it = extras.find(key);
  return it == extras.end() ? fallback : it->second;
}

std::uint64_t effective_seed(const ProtocolSpec& spec) noexcept {
  if (const auto* econcast = std::get_if<EconCastParams>(&spec.params))
    return econcast->config.seed;
  return spec.seed;
}

ProtocolSpec econcast_spec(proto::SimConfig config) {
  ProtocolSpec spec;
  spec.name = "econcast";
  spec.seed = config.seed;
  spec.params = EconCastParams{std::move(config)};
  return spec;
}

ProtocolSpec p4_spec(model::Mode mode, double sigma) {
  return ProtocolSpec{"econcast-p4", P4Params{mode, sigma}, 1};
}

ProtocolSpec oracle_spec(model::Mode mode) {
  return ProtocolSpec{"oracle", OracleParams{mode}, 1};
}

ProtocolSpec panda_spec(PandaParams params) {
  return ProtocolSpec{"panda", std::move(params), 1};
}

ProtocolSpec birthday_spec(BirthdayParams params) {
  return ProtocolSpec{"birthday", std::move(params), 1};
}

ProtocolSpec searchlight_spec(SearchlightParams params) {
  return ProtocolSpec{"searchlight-bound", std::move(params), 1};
}

ProtocolSpec testbed_spec(TestbedParams params) {
  return ProtocolSpec{"econcast-testbed", std::move(params), 1};
}

ProtocolSpec specialized(ProtocolSpec spec, model::Mode mode, double sigma) {
  struct Visitor {
    model::Mode mode;
    double sigma;
    void operator()(EconCastParams& p) const {
      p.config.mode = mode;
      p.config.sigma = sigma;
    }
    void operator()(P4Params& p) const {
      p.mode = mode;
      p.sigma = sigma;
    }
    void operator()(OracleParams& p) const { p.mode = mode; }
    void operator()(PandaParams&) const {}  // Panda has no mode/σ knob
    void operator()(BirthdayParams& p) const { p.mode = mode; }
    void operator()(SearchlightParams&) const {}
    void operator()(TestbedParams& p) const { p.sigma = sigma; }
  };
  std::visit(Visitor{mode, sigma}, spec.params);
  return spec;
}

ProtocolRegistry& ProtocolRegistry::global() {
  static ProtocolRegistry* const registry = [] {
    auto* r = new ProtocolRegistry();
    register_builtin_protocols(*r);
    return r;
  }();
  return *registry;
}

void ProtocolRegistry::add(std::string name, Factory factory) {
  if (name.empty())
    throw std::invalid_argument("protocol registry: empty name");
  if (!factory)
    throw std::invalid_argument("protocol registry: null factory for '" +
                                name + "'");
  const auto [it, inserted] =
      factories_.emplace(std::move(name), std::move(factory));
  if (!inserted)
    throw std::invalid_argument("protocol registry: '" + it->first +
                                "' already registered");
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates in sorted key order
}

std::shared_ptr<const Protocol> ProtocolRegistry::create(
    const ProtocolSpec& spec) const {
  const auto it = factories_.find(spec.name);
  if (it == factories_.end())
    throw std::invalid_argument("protocol registry: unknown protocol '" +
                                spec.name + "'");
  return it->second(spec.params);
}

}  // namespace econcast::protocol
