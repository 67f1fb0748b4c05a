// Replicated key-value store: the paper's motivating application class —
// data replication via the state machine approach [35] over virtually
// synchronous total-order multicast (Section 4.1.2), with transitional-set
// driven state transfer (in the spirit of [4]).
//
// Protocol:
//   * Commands (set/del) are totally ordered; every replica applies them in
//     the same order, so transitional members always agree on state.
//   * On a view with newcomers (members outside the transitional set), the
//     lowest-id transitional member multicasts a MARKER; when the marker is
//     delivered (in total order), all old members' states are identical, and
//     the same member multicasts a SNAPSHOT of its state-at-marker.
//   * A newcomer ignores commands delivered before the marker (the snapshot
//     already includes their effects), buffers commands delivered after it,
//     adopts the snapshot, replays the buffer, and is then fully synced.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "app/total_order.hpp"

namespace vsgc::app {

class ReplicatedKvStore {
 public:
  ReplicatedKvStore(TotalOrder& to, ProcessId self);

  void set(const std::string& key, const std::string& value);
  void del(const std::string& key);

  const std::map<std::string, std::string>& state() const { return state_; }
  std::uint64_t version() const { return version_; }  ///< commands applied
  bool synced() const { return synced_; }

 private:
  void handle_deliver(ProcessId origin, const std::string& payload);
  void handle_view(const View& v, const ProcessSet& transitional);
  void apply(const std::string& command);

  TotalOrder& to_;
  ProcessId self_;

  std::map<std::string, std::string> state_;
  std::uint64_t version_ = 0;
  bool synced_ = true;           ///< false while waiting for a snapshot
  bool marker_seen_ = true;      ///< newcomer: saw this view's marker
  bool snapshot_duty_ = false;   ///< we owe the view a marker + snapshot
  bool marker_sent_ = false;
  std::deque<std::string> replay_;  ///< newcomer: commands after the marker
  std::optional<std::map<std::string, std::string>> state_at_marker_;
};

}  // namespace vsgc::app
