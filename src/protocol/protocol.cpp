#include "protocol/protocol.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace econcast::protocol {

namespace {

/// Protocol names, indexed by ProtocolParams::index(): the one place a name
/// is tied to its parameter type. Manifests and cache keys spell protocols
/// with these, so a rename changes every key.
constexpr std::string_view kNames[] = {
    "econcast",  "econcast-p4",       "oracle",           "panda",
    "birthday",  "searchlight-bound", "econcast-testbed",
};
static_assert(std::size(kNames) == std::variant_size_v<ProtocolParams>);

/// kNames' index of `name`, or std::size(kNames) when no protocol has it.
std::size_t name_index(std::string_view name) {
  return static_cast<std::size_t>(
      std::find(std::begin(kNames), std::end(kNames), name) -
      std::begin(kNames));
}

/// Default-constructed alternative `index` of ProtocolParams.
template <std::size_t... I>
ProtocolParams default_params(std::size_t index, std::index_sequence<I...>) {
  const ProtocolParams defaults[] = {ProtocolParams(std::in_place_index<I>)...};
  return defaults[index];
}

ProtocolSpec spec_of(ProtocolParams params) {
  ProtocolSpec spec;
  spec.name = protocol_name(params);
  spec.params = std::move(params);
  return spec;
}

}  // namespace

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
  const std::uint64_t seed = config.seed;
  ProtocolSpec spec = spec_of(EconCastParams{std::move(config)});
  spec.seed = seed;
  return spec;
}

ProtocolSpec p4_spec(model::Mode mode, double sigma) {
  return spec_of(P4Params{mode, sigma});
}

ProtocolSpec oracle_spec(model::Mode mode) {
  return spec_of(OracleParams{mode});
}

ProtocolSpec panda_spec(PandaParams params) { return spec_of(params); }

ProtocolSpec birthday_spec(BirthdayParams params) { return spec_of(params); }

ProtocolSpec searchlight_spec(SearchlightParams params) {
  return spec_of(params);
}

ProtocolSpec testbed_spec(TestbedParams params) { return spec_of(params); }

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

std::string_view protocol_name(const ProtocolParams& params) noexcept {
  return kNames[params.index()];
}

std::optional<ProtocolParams> params_for(std::string_view name) {
  const std::size_t index = name_index(name);
  if (index == std::size(kNames)) return std::nullopt;
  return default_params(index,
                        std::make_index_sequence<std::size(kNames)>{});
}

void check(const ProtocolSpec& spec) {
  const std::string_view expected = protocol_name(spec.params);
  if (spec.name == expected) return;
  if (name_index(spec.name) == std::size(kNames))
    throw std::invalid_argument("unknown protocol '" + spec.name + "'");
  throw std::invalid_argument("protocol '" + spec.name +
                              "': ProtocolSpec carries the parameters of '" +
                              std::string(expected) + "'");
}

}  // namespace econcast::protocol
