// Process: the deployable unit — one client process hosting a GCS end-point,
// its CO_RFIFO transport, and its membership-client proxy (Figure 1 / 8(a)).
//
// The Process wires the CO_RFIFO delivery stream to both consumers
// (membership wire messages go to the proxy; GCS wire messages go to the
// end-point) and implements whole-process crash/recovery (Section 8).
#pragma once

#include <memory>

#include "gcs/gcs_endpoint.hpp"
#include "membership/membership_client.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"

namespace vsgc::gcs {

enum class ForwardingKind { kSimple, kMinCopies };

struct ForwardingKindName {
  ForwardingKind value;
  const char* name;
};

/// The names config files use (obs/json_fields.hpp maps the enum through
/// this table and rejects any other name).
inline const auto& enum_names(ForwardingKind) {
  static constexpr ForwardingKindName kNames[] = {
      {ForwardingKind::kSimple, "simple"},
      {ForwardingKind::kMinCopies, "mincopies"}};
  return kNames;
}

inline std::unique_ptr<ForwardingStrategy> make_strategy(ForwardingKind kind) {
  switch (kind) {
    case ForwardingKind::kSimple:
      return std::make_unique<SimpleForwardingStrategy>();
    case ForwardingKind::kMinCopies:
      return std::make_unique<MinCopiesForwardingStrategy>();
  }
  return nullptr;
}

class Process {
 public:
  Process(sim::Simulator& sim, net::Network& network, ProcessId self,
          ServerId server, spec::TraceBus* trace, ForwardingKind forwarding)
      : self_(self) {
    transport_ = std::make_unique<transport::CoRfifoTransport>(
        sim, network, net::node_of(self));
    endpoint_ = std::make_unique<GcsEndpoint>(
        sim, *transport_, self, make_strategy(forwarding), trace);
    membership_ = std::make_unique<membership::MembershipClient>(
        sim, *transport_, self, server);
    membership_->add_listener(*endpoint_);
    // Span instrumentation shares the end-point's bus; all sites stay
    // zero-cost until TraceBus::set_lifecycle(true) (DESIGN.md §10).
    transport_->set_trace(trace);
    membership_->set_trace(trace);
    transport_->set_deliver_handler(
        [this](net::NodeId from, const std::any& payload) {
          if (membership_->handle(from, payload)) return;
          if (net::is_server_node(from)) return;  // unknown server traffic
          endpoint_->on_co_rfifo_deliver(net::process_of(from), payload);
        });
    // Defer the end-point's driver loop across a batched frame: one pump per
    // frame instead of one per message (DESIGN.md §11).
    transport_->set_batch_hooks(
        [this]() { endpoint_->begin_delivery_batch(); },
        [this]() { endpoint_->end_delivery_batch(); });
    transport_->set_raw_handler(
        [this](net::NodeId from, const std::any& payload) {
          membership_->handle(from, payload);
        });
    // Corruption recovery (DESIGN.md §12): when a transport guard detects
    // impossible ack/seq state it re-homes the stream, but entries a
    // corrupted cursor skipped are lost to the current view — the end-point's
    // per-sender delivery indexes only re-align at a view change. Force one
    // by re-attaching to the membership server under a fresh incarnation.
    transport_->set_reset_handler(
        [this](net::NodeId) { membership_->resync(); });
  }

  /// Begin heartbeating to the membership server (attaches the process).
  void start() { membership_->start(); }

  /// Graceful departure: the group reconfigures without waiting for the
  /// failure detector; start() re-joins later.
  void leave() { membership_->leave(); }

  /// Section 8: full-process crash — GCS end-point, client proxy, and
  /// transport all stop; nothing is kept on stable storage.
  void crash() {
    endpoint_->crash();
    membership_->crash();
    transport_->crash();
  }

  void recover() {
    transport_->recover();
    endpoint_->recover();
    membership_->recover();
  }

  bool crashed() const { return endpoint_->crashed(); }

  GcsEndpoint& endpoint() { return *endpoint_; }
  const GcsEndpoint& endpoint() const { return *endpoint_; }
  transport::CoRfifoTransport& transport() { return *transport_; }
  membership::MembershipClient& membership() { return *membership_; }
  ProcessId id() const { return self_; }

 private:
  ProcessId self_;
  std::unique_ptr<transport::CoRfifoTransport> transport_;
  std::unique_ptr<GcsEndpoint> endpoint_;
  std::unique_ptr<membership::MembershipClient> membership_;
};

}  // namespace vsgc::gcs
