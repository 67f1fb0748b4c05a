// Global trace-event vocabulary.
//
// Simulated executions emit these events onto a TraceBus; the specification
// automata of Section 4 (implemented as checkers in this directory) consume
// them and assert, online, that every event was legal — the runtime analogue
// of the paper's refinement proofs. Each event corresponds to an external
// action of the composed system, tagged with the process p at which it occurs.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "gcs/app_msg.hpp"
#include "membership/view.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vsgc::spec {

/// GCS.send_p(m)
struct GcsSend {
  ProcessId p;
  gcs::AppMsg msg;
};

/// GCS.deliver_p(q, m)
struct GcsDeliver {
  ProcessId p;  ///< receiving process
  ProcessId q;  ///< original sender
  gcs::AppMsg msg;
};

/// GCS.view_p(v, T)
struct GcsView {
  ProcessId p;
  View view;
  std::set<ProcessId> transitional;
};

/// GCS.block_p()
struct GcsBlock {
  ProcessId p;
};

/// client.block_ok_p()
struct GcsBlockOk {
  ProcessId p;
};

/// MBRSHP.start_change_p(cid, set)
struct MbrStartChange {
  ProcessId p;
  StartChangeId cid;
  std::set<ProcessId> set;
};

/// MBRSHP.view_p(v)
struct MbrView {
  ProcessId p;
  View view;
};

/// crash_p() / recover_p() (Section 8)
struct Crash {
  ProcessId p;
};
struct Recover {
  ProcessId p;
};

/// Environment fault applied by sim::FailureInjector (partition, link
/// failure, loss spike, ...). Process crash/recovery keeps its dedicated
/// Crash/Recover events; this covers every other fault so post-mortem
/// timelines show exactly which adversarial schedule an execution ran under.
// Faults are adversarial *inputs*, not protocol actions a safety checker
// could constrain; the consumers are MetricsCollector and the trace exporters
// (src/obs).
// vsgc-lint: allow(event-coverage) adversarial input metadata, consumed by src/obs timelines rather than by a spec checker
struct FaultInjected {
  std::string kind;    ///< stable op name, e.g. "partition", "link_down"
  std::string detail;  ///< human-readable arguments
};

// ---- Causal span layer (DESIGN.md §10) ----------------------------------
// Message-lifecycle and view-change phase markers. A message's deterministic
// trace id is (sender, uid): the sender's ProcessId plus its sender-local
// sequence number, assigned at submit time. These events are high-volume and
// carry no protocol meaning — they exist so obs::analyze (and through it
// tools/vsgc_trace) can reconstruct causal chains post-mortem. Components
// emit them only when TraceBus::lifecycle() is on (the Registry's zero-cost
// contract: one branch when tracing is off).

/// The sender handed (sender, uid) to CO_RFIFO for multicast — the message
/// left the end-point's send buffer for the wire.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MsgWireSend {
  ProcessId p;  ///< == sender
  ProcessId sender;
  std::uint64_t uid = 0;
};

/// An application message reached p's end-point buffer off the wire.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MsgRecv {
  ProcessId p;
  ProcessId from;    ///< wire-level sender (the forwarder for forwarded copies)
  ProcessId sender;  ///< trace id: original sender
  std::uint64_t uid = 0;
  bool forwarded = false;
};

/// p forwarded (sender, uid) to `copies` destinations during a view change.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MsgForward {
  ProcessId p;
  ProcessId sender;
  std::uint64_t uid = 0;
  std::uint64_t copies = 0;
};

/// p committed its cut and multicast its synchronization message for cid.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct SyncSent {
  ProcessId p;
  StartChangeId cid;
};

/// p stored q's synchronization message for cid (direct or relayed).
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct SyncRecv {
  ProcessId p;
  ProcessId from;
  StartChangeId cid;
};

/// A CO_RFIFO retransmission burst: `packets` re-sent from node `from_node`
/// towards `to_node` (timer fire or reset re-homing). Node values use the
/// net::NodeId encoding (servers live at net::kServerBase + s).
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct XportRetransmit {
  std::uint32_t from_node = 0;
  std::uint32_t to_node = 0;
  std::uint64_t packets = 0;
};

/// Membership-side view-change phase marker, keyed by node (server nodes use
/// the net::NodeId encoding so client and server markers share one type).
/// Server phases: "suspicion" (failure-detector estimate changed),
/// "round_start" (proposal round opened), "view_formed" (round completed).
/// Client phases: "notify_drop" (a stale start_change/view was suppressed by
/// the Local Monotonicity guards).
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MbrPhase {
  std::uint32_t node = 0;
  std::string phase;
  std::uint64_t round = 0;  ///< agreement round / epoch (0 when not known)
};

using EventBody = std::variant<GcsSend, GcsDeliver, GcsView, GcsBlock,
                               GcsBlockOk, MbrStartChange, MbrView, Crash,
                               Recover, FaultInjected, MsgWireSend, MsgRecv,
                               MsgForward, SyncSent, SyncRecv, XportRetransmit,
                               MbrPhase>;

struct Event {
  sim::Time at = 0;
  EventBody body;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& event) = 0;
};

/// Fan-out bus: every component emits its external actions here; checkers,
/// statistics collectors, and (optionally) a recording log subscribe.
class TraceBus {
 public:
  void subscribe(TraceSink& sink) { sinks_.push_back(&sink); }

  void set_recording(bool on) { recording_ = on; }
  const std::vector<Event>& recorded() const { return record_; }

  /// Opt into the fine-grained causal span events (MsgWireSend, MsgRecv,
  /// SyncSent, ...). Off by default: per-packet instrumentation sites check
  /// this flag before constructing an event, so the span layer costs one
  /// branch per site when no collector wants it (DESIGN.md §10).
  void set_lifecycle(bool on) { lifecycle_ = on; }
  bool lifecycle() const { return lifecycle_; }

  void emit(sim::Time at, EventBody body) {
    Event ev{at, std::move(body)};
    if (recording_) record_.push_back(ev);
    for (TraceSink* sink : sinks_) sink->on_event(ev);
  }

 private:
  std::vector<TraceSink*> sinks_;
  std::vector<Event> record_;
  bool recording_ = false;
  bool lifecycle_ = false;
};

}  // namespace vsgc::spec
