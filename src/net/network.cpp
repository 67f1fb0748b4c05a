#include "net/network.hpp"

namespace vsgc::net {

bool Network::link_up(NodeId a, NodeId b) const {
  if (down_nodes_.contains(a) || down_nodes_.contains(b)) return false;
  if (!isolated_.empty() &&
      (isolated_.contains(a) || isolated_.contains(b))) {
    return false;
  }
  if (down_links_.contains(ordered(a, b))) return false;
  if (!component_of_.empty()) {
    const auto ia = component_of_.find(a);
    const auto ib = component_of_.find(b);
    const std::uint32_t ca = ia == component_of_.end() ? 0 : ia->second;
    const std::uint32_t cb = ib == component_of_.end() ? 0 : ib->second;
    // Component 0 means "unassigned": unassigned nodes reach everyone.
    if (ca != 0 && cb != 0 && ca != cb) return false;
  }
  return true;
}

void Network::send(NodeId from, NodeId to, Payload payload,
                   std::size_t wire_size) {
  ++stats_.packets_sent;
  stats_.bytes_sent += wire_size;
  if (wire_size > stats_.max_packet_bytes) {
    stats_.max_packet_bytes = wire_size;
  }

  // Loss: an Rng draw normally; an explicit binary choice point under a
  // NondetSource. Short-circuit order matches the uncontrolled path so no
  // draw (or choice) is consumed for packets a fault already blocks.
  bool dropped = false;
  if (!fault_free() && !can_send(from, to)) {
    dropped = true;
  } else if (config_.drop_probability > 0.0) {
    dropped = nondet_ != nullptr ? nondet_->choose("net.drop", 2) == 1
                                 : rng_.chance(config_.drop_probability);
  }
  if (dropped) {
    ++stats_.packets_dropped;
    return;
  }

  sim::Time delay = config_.base_latency;
  if (config_.jitter > 0) {
    // Under a NondetSource, jitter is abstracted to its boundary values
    // (0 or the maximum): enough to flip arrival orders, without turning
    // every packet into a jitter-sized fan-out.
    delay += nondet_ != nullptr
                 ? (nondet_->choose("net.jitter", 2) == 1 ? config_.jitter
                                                          : sim::Time{0})
                 : static_cast<sim::Time>(rng_.next_below(
                       static_cast<std::uint64_t>(config_.jitter) + 1));
  }

  // Links are FIFO: jitter never lets a packet overtake an earlier one on
  // the same link.
  sim::Time arrival = sim_.now() + delay;
  sim::Time& last = last_arrival_[Link{from, to}];
  if (arrival <= last) arrival = last + 1;
  last = arrival;

  // The delivery closure carries the refcounted handle, not the payload
  // bytes: it fits the kernel's inline event storage, so an in-flight packet
  // costs no allocation beyond the one made when the payload was wrapped.
  sim_.schedule_at(arrival, [this, from, to, payload = std::move(payload)]() {
    // Re-check destination health at arrival time: a node that crashed while
    // the packet was in flight never sees it.
    if (!down_nodes_.empty() && down_nodes_.contains(to)) {
      ++stats_.packets_dropped;
      return;
    }
    const auto slot = handlers_.find(to);
    if (slot == decltype(handlers_)::kNone) {
      ++stats_.packets_dropped;
      return;
    }
    ++stats_.packets_delivered;
    // The box outlives any growth of the table the handler causes.
    Handler& handler = *handlers_.at(slot);
    handler(from, payload.any());
  });
}

}  // namespace vsgc::net
