// Unreliable datagram network model.
//
// This is the lowest substrate: point-to-point best-effort packets with
// configurable latency, jitter, probabilistic loss, link failures, and
// partitions. CO_RFIFO (src/transport) builds its reliable FIFO service on
// top of this, exactly like the paper's implementation built on the reliable
// datagram service of [36].
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "sim/nondet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace vsgc::net {

/// Refcounted immutable payload handle. A payload is wrapped into one
/// heap-allocated std::any when it enters the network layer and is shared by
/// reference count from there on: enqueueing a delivery, buffering a packet
/// for retransmission, or fanning a multicast out to N destinations copies a
/// pointer, never the payload bytes. Handlers still receive `const
/// std::any&`, so receive paths are unchanged.
class Payload {
 public:
  Payload() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): std::any call sites convert.
  Payload(std::any value)
      : ptr_(std::make_shared<const std::any>(std::move(value))) {}

  /// Wrap any payload type directly (one allocation, no intermediate any).
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Payload> &&
                !std::is_same_v<std::decay_t<T>, std::any>>>
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::any's ctor.
  Payload(T&& value)
      : ptr_(std::make_shared<const std::any>(
            std::in_place_type<std::decay_t<T>>, std::forward<T>(value))) {}

  const std::any& any() const {
    static const std::any kEmpty;
    return ptr_ != nullptr ? *ptr_ : kEmpty;
  }
  bool has_value() const { return ptr_ != nullptr && ptr_->has_value(); }

 private:
  std::shared_ptr<const std::any> ptr_;
};

class Network {
 public:
  struct Config {
    sim::Time base_latency = 1 * sim::kMillisecond;
    sim::Time jitter = 200;            ///< uniform extra delay in [0, jitter]
    double drop_probability = 0.0;     ///< independent per-packet loss
  };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t bytes_sent = 0;
    /// Largest single datagram seen (frame-aware: batched transport frames
    /// make this grow with batch size, a direct MTU-pressure signal).
    std::uint64_t max_packet_bytes = 0;
  };

  using Handler = std::function<void(NodeId from, const std::any& payload)>;

  Network(sim::Simulator& sim, Rng rng, Config config)
      : sim_(sim), rng_(rng), config_(config) {}
  Network(sim::Simulator& sim, Rng rng) : Network(sim, rng, Config()) {}

  void attach(NodeId node, Handler handler) { handlers_[node] = std::move(handler); }

  /// Remove the handler AND every per-link bookkeeping entry that names the
  /// node, so attach/detach churn cannot grow last_arrival_ without bound.
  void detach(NodeId node) {
    handlers_.erase(node);
    std::erase_if(last_arrival_, [node](const auto& kv) {
      return kv.first.first == node || kv.first.second == node;
    });
  }

  /// Best-effort point-to-point send. `wire_size` feeds byte accounting.
  void send(NodeId from, NodeId to, Payload payload, std::size_t wire_size = 0);

  // --- Fault injection -----------------------------------------------------

  void set_node_up(NodeId node, bool up) {
    if (up) down_nodes_.erase(node);
    else down_nodes_.insert(node);
  }
  bool node_up(NodeId node) const { return !down_nodes_.contains(node); }

  /// Symmetric link control; a downed link drops packets in both directions.
  void set_link_up(NodeId a, NodeId b, bool up) {
    const auto key = ordered(a, b);
    if (up) down_links_.erase(key);
    else down_links_.insert(key);
  }

  /// Asymmetric link control: a downed one-way link drops packets from
  /// `from` to `to` only; the reverse direction is unaffected. Composes with
  /// the symmetric state — a direction is up only if neither says down.
  void set_oneway_link_up(NodeId from, NodeId to, bool up) {
    if (up) down_oneway_.erase({from, to});
    else down_oneway_.insert({from, to});
  }

  /// Partition the network into disjoint components; packets between
  /// components are dropped. Nodes not listed stay reachable to everyone.
  void partition(const std::vector<std::set<NodeId>>& components) {
    component_of_.clear();
    std::uint32_t idx = 1;
    for (const auto& comp : components) {
      for (NodeId n : comp) component_of_[n] = idx;
      ++idx;
    }
  }

  /// Bulk correlated-failure isolation: every listed node loses connectivity
  /// to the entire network (a failure wave hitting a rack / AZ slice). One
  /// set insert per node — a 10% wave over 5k clients is 500 map touches,
  /// not 500 x 5000 per-pair link edits. Composes with links/partitions; a
  /// node is reachable only if no mechanism says otherwise.
  void isolate(const std::set<NodeId>& nodes) {
    isolated_.insert(nodes.begin(), nodes.end());
  }
  /// Lift a wave: restore connectivity for the listed nodes.
  void deisolate(const std::set<NodeId>& nodes) {
    for (NodeId n : nodes) isolated_.erase(n);
  }
  bool isolated(NodeId node) const { return isolated_.contains(node); }

  /// Remove the partition, all individual (symmetric and one-way) link
  /// failures, and all wave isolation.
  void heal() {
    component_of_.clear();
    down_links_.clear();
    down_oneway_.clear();
    isolated_.clear();
  }

  bool link_up(NodeId a, NodeId b) const;
  /// Directional reachability: link_up(from, to) plus one-way link state.
  bool can_send(NodeId from, NodeId to) const {
    return link_up(from, to) && !down_oneway_.contains({from, to});
  }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  /// FIFO-link bookkeeping entries currently held (bounded-growth tests).
  std::size_t tracked_links() const { return last_arrival_.size(); }
  void set_drop_probability(double p) { config_.drop_probability = p; }
  /// Runtime latency control (delay bursts in fault schedules).
  void set_latency(sim::Time base, sim::Time jitter) {
    config_.base_latency = base;
    config_.jitter = jitter;
  }

  /// Install (or with nullptr remove) a controllable-nondeterminism source.
  /// While installed, each per-packet loss draw (only where drop_probability
  /// > 0) becomes a binary "net.drop" choice point and each jitter draw
  /// (only where jitter > 0) a binary "net.jitter" boundary choice
  /// (min-or-max delay) — the Rng is left untouched, so detaching restores
  /// the baked random schedule exactly where it left off.
  void set_nondet(sim::NondetSource* source) { nondet_ = source; }

 private:
  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  sim::Simulator& sim_;
  Rng rng_;
  Config config_;
  Stats stats_;
  sim::NondetSource* nondet_ = nullptr;

  std::map<NodeId, Handler> handlers_;
  std::set<NodeId> down_nodes_;
  std::set<std::pair<NodeId, NodeId>> down_links_;
  std::set<std::pair<NodeId, NodeId>> down_oneway_;  ///< directional (from,to)
  std::set<NodeId> isolated_;  ///< wave-isolated nodes (bulk API)
  std::map<NodeId, std::uint32_t> component_of_;
  std::map<std::pair<NodeId, NodeId>, sim::Time> last_arrival_;
};

}  // namespace vsgc::net
