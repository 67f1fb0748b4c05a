// Totally ordered multicast layered on the GCS's within-view reliable FIFO
// service — the layering the paper points at with [13] (Section 4.1.1: "FIFO
// is a basic service upon which one can build stronger services").
//
// Sequencer algorithm: the lowest-id member of the current view sequences
// every data message it delivers by multicasting order messages; all members
// deliver data messages in sequence order. Because order messages travel
// through the same virtually synchronous channel as data messages, the
// agreed cut at a view change covers both, so members transitioning together
// flush identical totally ordered prefixes; any residue of unsequenced
// data is flushed in a deterministic (sender, uid) order that all
// transitional members compute identically — Virtual Synchrony is precisely
// what makes this flush safe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "app/blocking_client.hpp"

namespace vsgc::app {

class TotalOrder {
 public:
  using DeliverFn =
      std::function<void(ProcessId origin, const std::string& payload)>;
  using ViewFn = std::function<void(const View&, const ProcessSet&)>;

  TotalOrder(BlockingClient& client, ProcessId self);

  /// Multicast `payload` with total-order delivery.
  void send(const std::string& payload);

  void on_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void on_view(ViewFn fn) { view_ = std::move(fn); }

  ProcessId sequencer() const { return sequencer_; }

 private:
  using MsgId = std::pair<ProcessId, std::uint64_t>;  // (sender, uid)

  void handle_deliver(ProcessId from, const gcs::AppMsg& msg);
  void handle_view(const View& v, const ProcessSet& transitional);
  void try_deliver();
  void flush_residue();

  BlockingClient& client_;
  ProcessId self_;
  DeliverFn deliver_;
  ViewFn view_;

  ProcessId sequencer_;
  std::map<MsgId, std::string> data_;     ///< received, not yet TO-delivered
  std::deque<MsgId> order_;               ///< agreed sequence, pending data
  std::deque<MsgId> unsequenced_;         ///< arrival order (sequencer duty)
  std::set<MsgId> sequenced_;             ///< ids already covered by order msgs
};

}  // namespace vsgc::app
