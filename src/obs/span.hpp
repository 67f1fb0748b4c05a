// Causal span layer (DESIGN.md §10): reconstructs per-message lifecycles and
// per-process view-change phase decompositions from the trace-event stream.
//
// analyze() is the one derivation: a post-mortem pass over a recorded event
// vector (TraceBus::recorded() or a re-parsed JSONL file) that builds full
// MsgSpan/ViewSpan structures and classifies every expected-but-undelivered
// leg (orphan detection). Its consumers are the byte-deterministic report of
// tools/vsgc_trace, the BENCH_tracelat.json rows, and record_trace_metrics(),
// the only producer of trace-derived metrics: it folds the same phase samples
// into span.* histograms and the per-process counts and per-view intervals
// into the paper's headline gcs.*/mbr.* metrics. The fine-grained phases need
// TraceBus::lifecycle() on at the emitters; the headline metrics do not.
//
// Identity scheme: a message's trace id is (sender, uid) — the sender's
// ProcessId plus the sender-local sequence number assigned at submit. Both
// are carried by every message-lifecycle event, so causal chains reconstruct
// without any global coordination and deterministically across replays.
//
// Determinism: all derived quantities are integers (simulated microseconds,
// counts); percentiles are exact nearest-rank over sorted samples, never
// interpolated — so a report is a pure function of the event multiset.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spec/events.hpp"

namespace vsgc::obs {

class BenchArtifact;

/// Deterministic message trace id: sender + sender-local sequence number.
struct MsgTraceId {
  ProcessId sender;
  std::uint64_t uid = 0;

  friend auto operator<=>(const MsgTraceId&, const MsgTraceId&) = default;
};

std::string to_string(const MsgTraceId& id);

/// Why an expected delivery leg never completed. Everything except
/// kUnexplained is a legitimate outcome under crashes/partitions or a
/// truncated trace; kUnexplained means virtual synchrony lost a delivery.
enum class OrphanKind {
  kNeverInView,      ///< receiver never installed the send view
  kReceiverCrashed,  ///< receiver crashed while in the send view
  kSenderCrashed,    ///< sender crashed before the message reached the wire
  kExcludedByCut,    ///< receiver's next view excluded the sender from T
  kInFlightAtEnd,    ///< trace ended with the receiver still in the view
  kUnexplained,      ///< receiver left the view WITH the sender in T: a loss
};
constexpr int kOrphanKinds = 6;

const char* to_string(OrphanKind kind);

/// One receiver's leg of a message span.
struct DeliveryLeg {
  ProcessId receiver;
  sim::Time recv_at = -1;     ///< -1: no lifecycle recv recorded (self leg)
  sim::Time deliver_at = -1;  ///< -1: not delivered
  bool via_forward = false;
  std::optional<OrphanKind> orphan;  ///< set iff deliver_at < 0
};

/// The full lifecycle of one application message: submit at the sender,
/// hand-off to the transport, then one leg per member of the send view.
struct MsgSpan {
  MsgTraceId id;
  sim::Time submit_at = -1;
  sim::Time wire_send_at = -1;  ///< -1: never handed to the transport
  View view;                    ///< sender's view at submit (expected set)
  std::vector<DeliveryLeg> legs;  ///< one per view member, sorted by receiver
};

/// Client-side milestones of one process installing one view. Milestones are
/// first-occurrence within the change window (opened by the first
/// MbrStartChange after the previous installation); -1 = not observed. The
/// remaining fields cover the whole interval since the previous installation
/// (or the process's last crash): a Crash closes it without a sample.
struct ViewSpan {
  ProcessId p;
  ViewId view;
  sim::Time start_change_at = -1;
  sim::Time block_ok_at = -1;  ///< application acknowledged the block
  sim::Time sync_sent_at = -1;  ///< cut committed + sync message multicast
  sim::Time mbr_view_at = -1;   ///< MBRSHP notification of `view`
  sim::Time installed_at = -1;  ///< GCS view delivery
  sim::Time block_at = -1;      ///< last GCS.block before the installation
  std::uint64_t start_changes = 0;   ///< MBRSHP start_changes consumed
  std::uint64_t obsolete_views = 0;  ///< MBRSHP views superseded unseen
  /// Deliveries in the view this installation ends; -1 for the first view
  /// since the process (re)started.
  std::int64_t prev_view_deliveries = -1;
};

/// Per-process tallies of the trace's external actions.
struct ProcessCounts {
  std::uint64_t msgs_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t payload_bytes_delivered = 0;
  std::uint64_t start_changes = 0;
  std::uint64_t mbr_views = 0;
  std::uint64_t views_installed = 0;
  std::uint64_t blocks = 0;
  std::uint64_t block_oks = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
};

/// Monotone phase decomposition of a ViewSpan. Milestones are clamped into
/// [start_change_at, installed_at] and telescoped, so the four phases sum to
/// `total` EXACTLY (total == installed_at - start_change_at); a milestone
/// that never occurred (e.g. sync_send in the two-round baseline) yields a
/// zero-width phase absorbed by its successor.
struct ViewPhases {
  sim::Time blocking = 0;         ///< start_change -> block_ok
  sim::Time sync_send = 0;        ///< block_ok -> sync message sent
  sim::Time membership_wait = 0;  ///< sync sent -> MBRSHP view known
  sim::Time install_wait = 0;     ///< MBRSHP view -> GCS installation
  sim::Time total = 0;
};

ViewPhases view_phases(const ViewSpan& span);

/// Exact nearest-rank percentiles of one phase's samples.
struct PhaseStats {
  std::uint64_t count = 0;
  sim::Time p50 = 0;
  sim::Time p95 = 0;
  sim::Time p99 = 0;
  sim::Time max = 0;
};

/// Sorts `samples` in place and computes exact nearest-rank percentiles.
PhaseStats phase_stats(std::vector<sim::Time>& samples);

/// Everything vsgc_trace derives from one recorded execution.
struct TraceAnalysis {
  std::vector<MsgSpan> messages;  ///< sorted by (sender, uid)
  std::vector<ViewSpan> views;    ///< in installation (event) order
  std::uint64_t events = 0;
  sim::Time end_at = 0;  ///< timestamp of the last event
  std::uint64_t legs_expected = 0;
  std::uint64_t legs_delivered = 0;
  std::uint64_t orphans = 0;
  std::uint64_t orphans_by_kind[kOrphanKinds] = {};
  std::uint64_t retransmit_packets = 0;
  std::uint64_t forward_copies = 0;
  std::uint64_t mbr_rounds = 0;        ///< server "round_start" markers
  std::uint64_t mbr_views_formed = 0;  ///< server "view_formed" markers
  std::uint64_t mbr_suspicions = 0;    ///< server "suspicion" markers
  std::uint64_t notify_drops = 0;      ///< client-suppressed notifications
  std::map<ProcessId, ProcessCounts> counts;
  /// MBRSHP round per process: last start_change until the next MBRSHP view.
  std::vector<sim::Time> mbr_rounds_us;

  std::uint64_t unexplained() const {
    return orphans_by_kind[static_cast<int>(OrphanKind::kUnexplained)];
  }
};

/// Post-mortem causal reconstruction of a recorded execution.
TraceAnalysis analyze(const std::vector<spec::Event>& events);

/// Byte-deterministic plain-text report: accounting, per-phase percentiles,
/// queue-vs-wire decomposition, the `top_k` slowest deliveries with their
/// critical path, and every orphaned leg with its classification.
void write_trace_report(const TraceAnalysis& analysis, std::ostream& os,
                        int top_k = 5);

/// Fill a BENCH_tracelat.json artifact's "results" section: one "summary"
/// row plus one row per message/view phase (schema checked by
/// tools/validate_bench_json).
void append_tracelat_results(const TraceAnalysis& analysis,
                             BenchArtifact& artifact);

/// Fold an analysis into `registry`: every trace-derived metric.
///
/// Span metrics (always written; each histogram holds exactly the samples of
/// its phase row in append_tracelat_results):
///   span.msg.{sender_queue_us,wire_us,gate_us,e2e_us}
///   span.view.{blocking_us,sync_send_us,membership_wait_us,install_wait_us,
///              e2e_us}
///   span.retransmit_packets / span.forward_copies (counters)
///   span.mbr.<phase> (counters, only for phases that occurred)
///
/// Headline metrics (written only once observed, labelled process=pN):
///   gcs.msgs_sent / gcs.msgs_delivered / gcs.payload_bytes_{sent,delivered}
///   mbr.start_changes / mbr.views / gcs.views_installed / gcs.blocks /
///   gcs.block_oks / crashes / recoveries — per-process action counts
///   gcs.obsolete_views — MBRSHP views superseded before p installed them
///     (the E5 "never delivers obsolete views" claim)
/// and five unlabelled histograms:
///   gcs.view_change_latency_us — first start_change -> GCS view (E1)
///   mbr.round_us — MBRSHP start_change -> MBRSHP view
///   gcs.blocking_window_us — GCS.block -> GCS view (E6)
///   gcs.sync_rounds_per_view — start_changes consumed per installed view
///   gcs.msgs_per_view — deliveries within one view
/// Percentiles carry log2-bucket resolution. Counters add, so one registry
/// can absorb the analyses of many runs.
void record_trace_metrics(const TraceAnalysis& analysis, Registry& registry);

}  // namespace vsgc::obs
