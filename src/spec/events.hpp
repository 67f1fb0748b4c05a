// Global trace-event vocabulary.
//
// Simulated executions emit these events onto a TraceBus; the specification
// automata of Section 4 (implemented as checkers in this directory) consume
// them and assert, online, that every event was legal — the runtime analogue
// of the paper's refinement proofs. Each event corresponds to an external
// action of the composed system, tagged with the process p at which it occurs.
// Each event names its JSONL record type (kType) and declares its named
// fields once (json_fields, see obs/json_fields.hpp); that list is the
// record's schema.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "gcs/app_msg.hpp"
#include "membership/process_set.hpp"
#include "membership/view.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace vsgc::spec {

/// GCS.send_p(m)
struct GcsSend {
  static constexpr const char* kType = "gcs_send";
  ProcessId p;
  gcs::AppMsg msg;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p)("msg", s.msg); }
};

/// GCS.deliver_p(q, m)
struct GcsDeliver {
  static constexpr const char* kType = "gcs_deliver";
  ProcessId p;  ///< receiving process
  ProcessId q;  ///< original sender
  gcs::AppMsg msg;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p)("q", s.q)("msg", s.msg); }
};

/// GCS.view_p(v, T)
struct GcsView {
  static constexpr const char* kType = "gcs_view";
  ProcessId p;
  View view;
  ProcessSet transitional;  ///< the body the end-point built

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    ProcessSet::with_plain(s.transitional, [&](auto& transitional) {
      v("p", s.p)("view", s.view)("transitional", transitional);
    });
  }
};

/// GCS.block_p()
struct GcsBlock {
  static constexpr const char* kType = "gcs_block";
  ProcessId p;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p); }
};

/// client.block_ok_p()
struct GcsBlockOk {
  static constexpr const char* kType = "gcs_block_ok";
  ProcessId p;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p); }
};

/// MBRSHP.start_change_p(cid, set)
struct MbrStartChange {
  static constexpr const char* kType = "mbr_start_change";
  ProcessId p;
  StartChangeId cid;
  ProcessSet set;  ///< the body the membership service sent

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    ProcessSet::with_plain(s.set, [&](auto& set) {
      v("p", s.p)("cid", s.cid)("set", set);
    });
  }
};

/// MBRSHP.view_p(v)
struct MbrView {
  static constexpr const char* kType = "mbr_view";
  ProcessId p;
  View view;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p)("view", s.view); }
};

/// crash_p() / recover_p() (Section 8)
struct Crash {
  static constexpr const char* kType = "crash";
  ProcessId p;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p); }
};
struct Recover {
  static constexpr const char* kType = "recover";
  ProcessId p;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p); }
};

/// Environment fault applied by sim::FailureInjector (partition, link
/// failure, loss spike, ...). Process crash/recovery keeps its dedicated
/// Crash/Recover events; this covers every other fault so post-mortem
/// timelines show exactly which adversarial schedule an execution ran under.
/// Faults are adversarial *inputs*, not protocol actions a safety checker
/// could constrain; the checker bundle reads the corruption kinds and
/// "stabilize" to time its tolerance window (DESIGN.md §12).
struct FaultInjected {
  static constexpr const char* kType = "fault";
  std::string kind;    ///< stable op name, e.g. "partition", "link_down"
  std::string detail;  ///< human-readable arguments

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("kind", s.kind)("detail", s.detail); }
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
  static constexpr const char* kType = "msg_wire_send";
  ProcessId p;  ///< == sender
  ProcessId sender;
  std::uint64_t uid = 0;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("p", s.p)("sender", s.sender)("uid", s.uid);
  }
};

/// An application message reached p's end-point buffer off the wire.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MsgRecv {
  static constexpr const char* kType = "msg_recv";
  ProcessId p;
  ProcessId from;    ///< wire-level sender (the forwarder for forwarded copies)
  ProcessId sender;  ///< trace id: original sender
  std::uint64_t uid = 0;
  bool forwarded = false;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("p", s.p)("from", s.from)("sender", s.sender)("uid", s.uid)
     ("fwd", s.forwarded);
  }
};

/// p forwarded (sender, uid) to `copies` destinations during a view change.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MsgForward {
  static constexpr const char* kType = "msg_forward";
  ProcessId p;
  ProcessId sender;
  std::uint64_t uid = 0;
  std::uint64_t copies = 0;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("p", s.p)("sender", s.sender)("uid", s.uid)("copies", s.copies);
  }
};

/// p committed its cut and multicast its synchronization message for cid.
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct SyncSent {
  static constexpr const char* kType = "sync_sent";
  ProcessId p;
  StartChangeId cid;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("p", s.p)("cid", s.cid); }
};

/// p stored q's synchronization message for cid (direct or relayed).
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct SyncRecv {
  static constexpr const char* kType = "sync_recv";
  ProcessId p;
  ProcessId from;
  StartChangeId cid;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("p", s.p)("from", s.from)("cid", s.cid);
  }
};

/// A CO_RFIFO retransmission burst: `packets` re-sent from node `from_node`
/// towards `to_node` (timer fire or reset re-homing). Node values use the
/// net::NodeId encoding (servers live at net::kServerBase + s).
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct XportRetransmit {
  static constexpr const char* kType = "xport_retransmit";
  std::uint32_t from_node = 0;
  std::uint32_t to_node = 0;
  std::uint64_t packets = 0;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("from_node", s.from_node)("to_node", s.to_node)("packets", s.packets);
  }
};

/// Membership-side view-change phase marker, keyed by node (server nodes use
/// the net::NodeId encoding so client and server markers share one type).
/// Server phases: "suspicion" (failure-detector estimate changed),
/// "round_start" (proposal round opened), "view_formed" (round completed).
/// Client phases: "notify_drop" (a stale start_change/view was suppressed by
/// the Local Monotonicity guards).
// vsgc-lint: allow(event-coverage) causal span marker, consumed by obs::analyze / tools/vsgc_trace rather than by a spec checker
struct MbrPhase {
  static constexpr const char* kType = "mbr_phase";
  std::uint32_t node = 0;
  std::string phase;
  std::uint64_t round = 0;  ///< agreement round / epoch (0 when not known)

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("node", s.node)("phase", s.phase)("round", s.round);
  }
};

using EventBody = std::variant<GcsSend, GcsDeliver, GcsView, GcsBlock,
                               GcsBlockOk, MbrStartChange, MbrView, Crash,
                               Recover, FaultInjected, MsgWireSend, MsgRecv,
                               MsgForward, SyncSent, SyncRecv, XportRetransmit,
                               MbrPhase>;

/// One JSONL trace record (obs/trace_recorder.hpp): `at`, then `type` naming
/// the body's alternative (its kType), then that alternative's fields.
struct Event {
  sim::Time at = 0;
  EventBody body;

  template <class S, class V>
  static void json_fields(S& s, V& v) { v("at", s.at)("type", s.body); }
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

  /// Does an emitted event reach anyone (recording is on, or a sink is
  /// attached)? Sites whose event holds a message or a view check this
  /// before constructing it, so an idle bus costs one branch per site.
  bool active() const { return recording_ || !sinks_.empty(); }

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
