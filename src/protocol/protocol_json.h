// JSON codecs for the protocol layer: ProtocolSpec (protocol name + typed
// parameters) and SimResult. These are the leaves of the sweep-manifest
// format — runner::SweepSpec manifests embed ProtocolSpecs, and the
// checkpoint JSONL stream embeds one SimResult per completed cell.
//
// Round-trip guarantees: spec_from_json(to_json(s)) reconstructs the exact
// parameter values (doubles bit-for-bit via the writer's round-trip
// formatting; 64-bit seeds/counters as decimal strings), and a SimResult
// survives the trip with every metric — including the RunningStats/SampleSet
// internals — bit-identical, which is what lets a resumed sweep reproduce an
// uninterrupted run's aggregates exactly.
//
// to_json throws util::json::Error for a spec whose name is not its
// parameters' protocol name (protocol_name), and spec_from_json for a name
// no protocol has.
#ifndef ECONCAST_PROTOCOL_PROTOCOL_JSON_H
#define ECONCAST_PROTOCOL_PROTOCOL_JSON_H

#include "protocol/protocol.h"
#include "util/json.h"

namespace econcast::protocol {

util::json::Value to_json(const ProtocolSpec& spec);
ProtocolSpec spec_from_json(const util::json::Value& value);

util::json::Value to_json(const SimResult& result);
SimResult sim_result_from_json(const util::json::Value& value);

/// Mode codec shared with the runner's manifest layer ("groupput"/"anyput").
const char* mode_to_token(model::Mode mode) noexcept;
model::Mode mode_from_token(const std::string& token);

}  // namespace econcast::protocol

#endif  // ECONCAST_PROTOCOL_PROTOCOL_JSON_H
