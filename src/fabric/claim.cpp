#include "fabric/claim.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace econcast::fabric {

namespace fs = std::filesystem;
namespace json = util::json;

std::int64_t wall_clock_seconds() {
  // Heartbeat freshness is operational metadata for the coordinator's lease
  // decisions; it never reaches a simulation result or a results file.
  return std::chrono::duration_cast<std::chrono::seconds>(
             // NOLINT-DETERMINISM(wall-clock): lease timestamps only —
             // merged result bytes are independent of every heartbeat value.
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string claim_text(const ShardClaim& claim) {
  json::Object o;
  o.set("format", "econcast-shard-claim")
      .set("shard", static_cast<double>(claim.shard))
      .set("shards", static_cast<double>(claim.shard_count))
      .set("worker", claim.worker)
      .set("claimed_at", static_cast<double>(claim.claimed_at))
      .set("heartbeat_at", static_cast<double>(claim.heartbeat_at))
      .set("cells_done", json::u64_to_string(claim.cells_done));
  return json::dump(json::Value(std::move(o)), 2) + "\n";
}

}  // namespace

bool try_acquire_claim(const std::string& path, const ShardClaim& claim) {
  // O_CREAT|O_EXCL is the atomic mutual exclusion: exactly one concurrent
  // acquirer gets the file. (std::ofstream has no create-exclusive mode
  // until C++23's noreplace.)
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return false;
    throw std::runtime_error("cannot create shard claim '" + path +
                             "': " + std::strerror(errno));
  }
  const std::string text = claim_text(claim);
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      ::unlink(path.c_str());  // do not leave a torn claim holding the shard
      throw std::runtime_error("cannot write shard claim '" + path +
                               "': " + std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

ShardClaim load_claim(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot read shard claim '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const json::Value v = json::parse(buffer.str());
    if (v.at("format").as_string() != "econcast-shard-claim")
      throw json::Error("unexpected format");
    ShardClaim claim;
    claim.shard = json::size_from_json(v.at("shard"), "shard");
    claim.shard_count = json::size_from_json(v.at("shards"), "shards");
    claim.worker = v.at("worker").as_string();
    claim.claimed_at = static_cast<std::int64_t>(
        json::size_from_json(v.at("claimed_at"), "claimed_at"));
    claim.heartbeat_at = static_cast<std::int64_t>(
        json::size_from_json(v.at("heartbeat_at"), "heartbeat_at"));
    claim.cells_done = json::u64_from_string(v.at("cells_done").as_string());
    return claim;
  } catch (const json::Error& e) {
    throw std::runtime_error("shard claim '" + path + "' is corrupt: " +
                             e.what());
  }
}

void touch_claim(const std::string& path, ShardClaim& claim,
                 std::uint64_t cells_done) {
  // Re-read before rewriting: if the coordinator decided we were dead and
  // released (or another worker re-acquired) the claim, this worker must
  // stop touching the shard rather than fight the new owner.
  ShardClaim current;
  try {
    current = load_claim(path);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("shard claim '" + path +
                             "' disappeared: the coordinator reassigned "
                             "this shard (heartbeat lease expired)");
  }
  if (current.worker != claim.worker)
    throw std::runtime_error("shard claim '" + path + "' now belongs to '" +
                             current.worker + "', not '" + claim.worker +
                             "': this shard was reassigned");

  claim.heartbeat_at = wall_clock_seconds();
  claim.cells_done = cells_done;
  const std::string tmp = path + "." + claim.worker + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !(out << claim_text(claim) << std::flush))
      throw std::runtime_error("cannot write shard claim '" + tmp + "'");
  }
  // rename is atomic: readers see either the old heartbeat or the new one,
  // never a torn file.
  fs::rename(tmp, path);
}

void release_claim(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // idempotent; ignore missing files
}

bool claim_exists(const std::string& path) { return fs::exists(path); }

}  // namespace econcast::fabric
