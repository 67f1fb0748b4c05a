#include "app/replicated_kv.hpp"

#include "util/assert.hpp"
#include "util/serialization.hpp"

namespace vsgc::app {

namespace {

constexpr char kCmdTag = 'C';
constexpr char kMarkerTag = 'M';
constexpr char kSnapshotTag = 'S';

std::string encode_snapshot(const std::map<std::string, std::string>& state,
                            std::uint64_t version) {
  Encoder enc;
  enc.put_u64(version);
  enc.put_u32(static_cast<std::uint32_t>(state.size()));
  for (const auto& [k, v] : state) {
    enc.put_string(k);
    enc.put_string(v);
  }
  return std::string(1, kSnapshotTag) +
         std::string(enc.bytes().begin(), enc.bytes().end());
}

std::pair<std::map<std::string, std::string>, std::uint64_t> decode_snapshot(
    const std::string& payload) {
  std::vector<std::uint8_t> bytes(payload.begin() + 1, payload.end());
  Decoder dec(bytes);
  const std::uint64_t version = dec.get_u64();
  const std::uint32_t n = dec.get_u32();
  std::map<std::string, std::string> state;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = dec.get_string();
    state[k] = dec.get_string();
  }
  return {std::move(state), version};
}

}  // namespace

ReplicatedKvStore::ReplicatedKvStore(TotalOrder& to, ProcessId self)
    : to_(to), self_(self) {
  to_.on_deliver([this](ProcessId origin, const std::string& payload) {
    handle_deliver(origin, payload);
  });
  to_.on_view([this](const View& v, const ProcessSet& t) {
    handle_view(v, t);
  });
}

void ReplicatedKvStore::set(const std::string& key, const std::string& value) {
  Encoder enc;
  enc.put_u8(1);
  enc.put_string(key);
  enc.put_string(value);
  to_.send(std::string(1, kCmdTag) +
           std::string(enc.bytes().begin(), enc.bytes().end()));
}

void ReplicatedKvStore::del(const std::string& key) {
  Encoder enc;
  enc.put_u8(2);
  enc.put_string(key);
  to_.send(std::string(1, kCmdTag) +
           std::string(enc.bytes().begin(), enc.bytes().end()));
}

void ReplicatedKvStore::apply(const std::string& command) {
  std::vector<std::uint8_t> bytes(command.begin() + 1, command.end());
  Decoder dec(bytes);
  const std::uint8_t op = dec.get_u8();
  if (op == 1) {
    std::string k = dec.get_string();
    state_[k] = dec.get_string();
  } else if (op == 2) {
    state_.erase(dec.get_string());
  } else {
    VSGC_REQUIRE(false, "replicated kv: unknown command op " << int(op));
  }
  ++version_;
}

void ReplicatedKvStore::handle_deliver(ProcessId origin,
                                       const std::string& payload) {
  (void)origin;
  VSGC_REQUIRE(!payload.empty(), "replicated kv: empty payload");
  switch (payload[0]) {
    case kCmdTag:
      if (synced_) {
        apply(payload);
      } else if (marker_seen_) {
        replay_.push_back(payload);  // after-marker commands: replay later
      }
      // Pre-marker commands at a newcomer are ignored: the snapshot that is
      // coming already includes their effects.
      break;
    case kMarkerTag:
      marker_seen_ = true;
      if (snapshot_duty_ && synced_) {
        // All old members' states are identical at this point in the total
        // order; capture and ship ours.
        to_.send(encode_snapshot(state_, version_));
        snapshot_duty_ = false;
      }
      break;
    case kSnapshotTag: {
      if (synced_) break;  // old members ignore the snapshot
      auto [state, version] = decode_snapshot(payload);
      state_ = std::move(state);
      version_ = version;
      synced_ = true;
      std::deque<std::string> replay;
      replay.swap(replay_);
      for (const std::string& cmd : replay) apply(cmd);
      break;
    }
    default:
      VSGC_REQUIRE(false, "replicated kv: unknown payload tag");
  }
}

void ReplicatedKvStore::handle_view(const View& v,
                                    const ProcessSet& transitional) {
  snapshot_duty_ = false;
  const bool everyone_moved_together =
      transitional.size() == v.members().size();
  if (everyone_moved_together) {
    // Virtual Synchrony at work: no state exchange needed at all — the very
    // point of the property (Section 4.1.2).
    marker_seen_ = true;
    return;
  }

  // The authoritative ("primary") component is the one the lowest-id member
  // of the new view moved from; every process can decide membership of it
  // locally: it is primary iff that lowest-id member is in its transitional
  // set. Everyone else resynchronizes from the primary component.
  const ProcessId lowest_member = *v.members().begin();
  const bool in_primary = transitional.contains(lowest_member) && synced_;

  if (in_primary) {
    marker_seen_ = true;
    if (self_ == *transitional.begin()) {
      // Lowest-id primary member runs the transfer.
      snapshot_duty_ = true;
      to_.send(std::string(1, kMarkerTag));
    }
  } else {
    synced_ = false;
    marker_seen_ = false;
    replay_.clear();
  }
}

}  // namespace vsgc::app
