// Causally ordered multicast layered on the GCS's within-view FIFO service —
// another instance of the paper's Section 4.1.1 point that FIFO is the base
// on which stronger orderings are built (the classic vector-clock scheme of
// Birman-Schiper-Stephenson).
//
// Why it can violate without this layer: CO_RFIFO gives per-SENDER FIFO, but
// retransmission delays under loss can deliver q's reply to p's message
// before p's message itself arrives (cross-sender inversion). This layer
// stamps each message with a vector clock over the current view and buffers
// deliveries until their causal predecessors arrive. Virtual Synchrony makes
// the view boundary safe: transitional members agree on the delivered set,
// so clocks can simply reset per view.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "app/blocking_client.hpp"

namespace vsgc::app {

class CausalOrder {
 public:
  using DeliverFn =
      std::function<void(ProcessId origin, const std::string& payload)>;
  using ViewFn = std::function<void(const View&, const ProcessSet&)>;

  CausalOrder(BlockingClient& client, ProcessId self);

  /// Multicast `payload` with causal-order delivery.
  void send(const std::string& payload);

  void on_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void on_view(ViewFn fn) { view_ = std::move(fn); }

  std::size_t buffered() const;

 private:
  struct Stamped {
    std::map<ProcessId, std::uint64_t> clock;
    std::string payload;
  };

  void handle_deliver(ProcessId from, const gcs::AppMsg& msg);
  void handle_view(const View& v, const ProcessSet& transitional);
  bool deliverable(ProcessId from, const Stamped& m) const;
  void drain();

  BlockingClient& client_;
  ProcessId self_;
  DeliverFn deliver_;
  ViewFn view_;

  std::map<ProcessId, std::uint64_t> delivered_;  ///< VC of delivered msgs
  std::map<ProcessId, std::deque<Stamped>> pending_;  ///< FIFO per sender
  std::uint64_t own_sent_ = 0;  ///< our sends in this view (may lead clock)
  std::deque<std::string> outbox_;  ///< raw payloads deferred while blocked
};

}  // namespace vsgc::app
