// ChannelMux: many logical group channels over one CO_RFIFO session per
// peer pair (DESIGN.md §13).
//
// Without multiplexing, K groups × N members means K×N transport sessions:
// each with its own sequence space, ack stream, retransmit timer, and
// per-peer buffers. The mux shares ONE CoRfifoTransport per node across
// every group the node belongs to: frames carry a group tag
// (wire::kFlagHasGroup), the session's single FIFO stream preserves order
// within each group for free, and per-peer state is paid once — per-member
// resident state scales with peers-with-traffic, not with group count.
//
// Responsibilities:
//   * route group-tagged deliveries to the handler attached for that group;
//   * maintain the union of per-group reliable sets on the shared transport
//     (a group's endpoint asks for reliable delivery to its members; the
//     session must stay reliable toward the union of all groups' members);
//   * hand out Channel handles — a thin (transport, group) pair the
//     endpoints talk to instead of a dedicated transport.
//
// A Channel is also constructible directly from a bare transport (group 0,
// no mux): single-group deployments keep the exact PR 7 wire behaviour and
// pay zero bytes for the tag.
#pragma once

#include <algorithm>
#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>

#include "transport/co_rfifo.hpp"
#include "util/assert.hpp"

namespace vsgc::transport {

class ChannelMux;

/// Thin sending handle: (transport, group [, mux]). Copyable; endpoints use
/// it wherever they previously held a CoRfifoTransport reference.
class Channel {
 public:
  /// Direct single-channel form: group 0 over a dedicated transport —
  /// byte-identical to pre-mux behaviour.
  /*implicit*/ Channel(CoRfifoTransport& transport)
      : transport_(&transport), mux_(nullptr), group_(0) {}

  Channel(CoRfifoTransport& transport, ChannelMux* mux, std::uint32_t group)
      : transport_(&transport), mux_(mux), group_(group) {}

  /// Each call takes an ascending span without duplicates, as
  /// CoRfifoTransport's send and set_reliable do.
  void send(std::span<const net::NodeId> dests, net::Payload payload,
            std::size_t payload_size = 0) {
    transport_->send(dests, std::move(payload), payload_size, group_);
  }

  /// Ask for reliable gap-free delivery toward `set` on this channel. Under
  /// a mux this updates the group's slice and re-derives the union; direct
  /// channels pass straight through.
  inline void set_reliable(std::span<const net::NodeId> set);

  /// Does this channel's reliable slice already equal `set` (and is the
  /// underlying session reliable toward all of it)? Endpoints use this as
  /// their idempotence check before re-asserting the set.
  inline bool reliable_matches(std::span<const net::NodeId> set) const;

  /// The transport's reliable_generation(). Every slice write goes through
  /// the transport's set_reliable, so it moves whenever the answer of
  /// reliable_matches may have.
  std::uint32_t reliable_generation() const {
    return transport_->reliable_generation();
  }

  CoRfifoTransport& transport() { return *transport_; }
  const CoRfifoTransport& transport() const { return *transport_; }
  std::uint32_t group() const { return group_; }

 private:
  CoRfifoTransport* transport_;
  ChannelMux* mux_;
  std::uint32_t group_;
};

class ChannelMux {
 public:
  using DeliverFn = CoRfifoTransport::DeliverFn;

  explicit ChannelMux(CoRfifoTransport& transport) : transport_(transport) {
    transport_.set_group_deliver_handler(
        [this](net::NodeId from, std::uint32_t group,
               const std::any& payload) { dispatch(from, group, payload); });
  }

  ChannelMux(const ChannelMux&) = delete;
  ChannelMux& operator=(const ChannelMux&) = delete;

  /// Open (or re-open) channel `group`, routing its deliveries to `fn`.
  /// Group 0 is the untagged direct channel and cannot be opened here.
  Channel open(std::uint32_t group, DeliverFn fn) {
    VSGC_REQUIRE(group != 0, "group 0 is the untagged default channel");
    channels_[group].deliver = std::move(fn);
    return Channel(transport_, this, group);
  }

  /// Replace channel `group`'s reliable slice and push the union of every
  /// group's slice to the shared transport. O(Σ slice sizes) per call —
  /// slices are group memberships (bounded by group size), never N.
  void set_group_reliable(std::uint32_t group,
                          const std::set<net::NodeId>& set) {
    channels_[group].reliable = set;
    std::set<net::NodeId> uni;
    for (const auto& [g, ch] : channels_) {
      uni.insert(ch.reliable.begin(), ch.reliable.end());
    }
    transport_.set_reliable(uni);
  }

  const std::set<net::NodeId>& group_reliable(std::uint32_t group) const {
    static const std::set<net::NodeId> kEmpty;
    auto it = channels_.find(group);
    return it == channels_.end() ? kEmpty : it->second.reliable;
  }

  CoRfifoTransport& transport() { return transport_; }

 private:
  struct ChannelState {
    DeliverFn deliver;
    std::set<net::NodeId> reliable;
  };

  void dispatch(net::NodeId from, std::uint32_t group,
                const std::any& payload) {
    auto it = channels_.find(group);
    // Traffic for a group we never joined (or already left): drop. The
    // sender's view of our membership is simply stale. Untagged traffic has
    // no channel under a mux and is dropped too.
    if (it == channels_.end() || !it->second.deliver) return;
    it->second.deliver(from, payload);
  }

  CoRfifoTransport& transport_;
  std::map<std::uint32_t, ChannelState> channels_;
};

void Channel::set_reliable(std::span<const net::NodeId> set) {
  if (mux_ == nullptr) {
    transport_->set_reliable(set);
  } else {
    mux_->set_group_reliable(group_,
                             std::set<net::NodeId>(set.begin(), set.end()));
  }
}

bool Channel::reliable_matches(std::span<const net::NodeId> set) const {
  if (mux_ != nullptr) {
    if (!std::ranges::equal(mux_->group_reliable(group_), set)) return false;
    for (net::NodeId q : set) {
      if (!transport_->reliable_set().contains(q)) return false;
    }
    return true;
  }
  return std::ranges::equal(transport_->reliable_set(), set);
}

}  // namespace vsgc::transport
