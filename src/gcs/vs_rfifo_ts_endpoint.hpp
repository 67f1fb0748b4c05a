// VS_RFIFO+TS end-point automaton (paper Figure 10): extends WV_RFIFO with
// Virtual Synchrony (agreed cuts) and Transitional Sets.
//
// Protocol recap (Section 5.2): on MBRSHP.start_change(cid, set) the
// end-point reliably sends a synchronization message tagged with its locally
// unique cid, carrying its current view and a cut — the index of the last
// message from each sender it commits to deliver before any view v' with
// v'.startId(self) == cid. When MBRSHP.view(v') arrives, the v'.startId
// mapping identifies exactly which sync messages to use, so all end-points
// moving from v to v' compute the same transitional set T and the same
// agreed cut (max over T's cuts) — in ONE round, run in parallel with the
// membership round, with no pre-agreed global identifier.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "gcs/wv_rfifo_endpoint.hpp"

namespace vsgc::gcs {

/// A received (or self-recorded) synchronization message. Its cut is the
/// body the sender built: the sender's record, the SyncMsg it sent and each
/// receiver's record share it.
struct SyncMsgData {
  View view;  ///< sender's view when it sent the sync message
  wire::Cut cut;

  std::int64_t cut_of(ProcessId q) const { return wire::cut_of(cut, q); }
  /// True when both records hold one cut body.
  bool shares_cut_with(const SyncMsgData& o) const {
    return cut.shares_body_with(o.cut);
  }
};

/// sync_msg[q][·]: the sync messages held from one sender, ascending by cid.
/// Garbage collection empties `by_cid` in place and keeps the entry, so the
/// next round's messages from q reuse its storage.
struct SenderSyncs {
  ProcessId sender;
  std::vector<std::pair<StartChangeId, SyncMsgData>> by_cid;
};

/// One forwarding decision: send msgs[orig][view][index] to `dests`.
struct ForwardAction {
  std::set<ProcessId> dests;
  ProcessId orig;
  View view;
  std::int64_t index = 0;
};

/// The sync messages a candidate view v selects, resolved against a
/// reference view w (the guards of Figure 10): sync_msg[r][v.startId(r)]
/// for every r in v.set ∩ w.set. With w the current view, T below is the
/// transitional set view_p(v, T) delivers and `agreed` is the agreed cut.
struct SyncResolution {
  /// (r, sync_msg[r][v.startId(r)] or nullptr), ascending by r.
  std::vector<std::pair<ProcessId, const SyncMsgData*>> syncs;
  std::size_t missing = 0;  ///< entries of `syncs` without a message
  /// T: the entries whose message was sent in w, ascending by r.
  std::vector<std::pair<ProcessId, const SyncMsgData*>> transitional;
  /// agreed[i]: the max over T of cut[q] for the i'th member q of w.set.
  std::vector<std::int64_t> agreed;
};

class VsRfifoTsEndpoint;

/// How synchronization messages are disseminated.
///
/// * kDirect (the paper's Section 5.2 algorithm): every end-point multicasts
///   its sync message to start_change.set directly — one round, O(n^2)
///   messages per reconfiguration.
/// * kTwoTier (the paper's Section 9 future-work extension, after Guo et al.
///   [22]): each process sends its sync message to its statically designated
///   leader; the leader relays it, batched, to the other leaders and its own
///   local members, and leaders forward foreign aggregates to their locals —
///   O(n·L) messages at the cost of one extra hop. A process whose leader is
///   absent from the start_change set falls back to direct dissemination, so
///   liveness never depends on leader placement.
///
/// `compact_sync_to_strangers` enables the Section 5.2.4 optimization: a
/// sync message sent to a process outside the sender's current view carries
/// no cut (the recipient can never include the sender in its transitional
/// set, so the cut would never be read).
struct SyncRouting {
  enum class Mode { kDirect, kTwoTier };

  Mode mode = Mode::kDirect;
  std::map<ProcessId, ProcessId> leader_of;  ///< static leader assignment
  bool compact_sync_to_strangers = false;

  ProcessId leader(ProcessId p) const {
    auto it = leader_of.find(p);
    return it == leader_of.end() ? p : it->second;
  }

  /// Two-tier routing over p1..pn: `groups` consecutive blocks of
  /// ceil(n / groups) processes, the first of each block its leader.
  static SyncRouting two_tier(int n, int groups) {
    SyncRouting routing;
    routing.mode = Mode::kTwoTier;
    const int per_group = (n + groups - 1) / groups;
    for (int i = 0; i < n; ++i) {
      routing.leader_of[ProcessId{static_cast<std::uint32_t>(i + 1)}] =
          ProcessId{static_cast<std::uint32_t>(i / per_group * per_group + 1)};
    }
    return routing;
  }
};

/// ForwardingStrategyPredicate (Section 5.2.2), as a pluggable policy.
class ForwardingStrategy {
 public:
  virtual ~ForwardingStrategy() = default;
  virtual const char* name() const = 0;
  /// Inspect the end-point state and propose forwards. The end-point itself
  /// deduplicates against its forwarded_set (one copy per destination).
  virtual std::vector<ForwardAction> select(const VsRfifoTsEndpoint& ep) = 0;
};

class VsRfifoTsEndpoint : public WvRfifoEndpoint {
 public:
  struct VsStats {
    std::uint64_t sync_msgs_sent = 0;      ///< per-destination sync copies
    std::uint64_t sync_msgs_received = 0;
    std::uint64_t sync_bytes_sent = 0;     ///< sync + aggregate wire bytes
    std::uint64_t aggregates_relayed = 0;  ///< two-tier leader relays
    std::uint64_t forwards_sent = 0;       ///< per-destination forwarded copies
  };

  VsRfifoTsEndpoint(sim::Simulator& sim,
                    transport::Channel transport, ProcessId self,
                    std::unique_ptr<ForwardingStrategy> strategy,
                    spec::TraceBus* trace = nullptr);

  // ---- Read access for forwarding strategies and tests ----

  /// The pending start_change; its set is the body the membership service
  /// sent.
  const std::optional<std::pair<StartChangeId, ProcessSet>>& start_change()
      const {
    return start_change_;
  }

  /// sync_msg[q][cid], or nullptr.
  const SyncMsgData* sync_msg(ProcessId q, StartChangeId cid) const;

  /// Every sender's sync messages, ascending by sender.
  const std::vector<SenderSyncs>& sync_msgs() const { return sync_msgs_; }

  const VsStats& vs_stats() const { return vs_stats_; }

  /// Configure sync-message dissemination (default: direct all-to-all).
  void set_sync_routing(SyncRouting routing) { routing_ = std::move(routing); }
  const SyncRouting& sync_routing() const { return routing_; }

  /// Resolve candidate v against reference w into `out`, reusing its
  /// capacity.
  void resolve(const View& v, const View& w, SyncResolution& out) const;

  /// resolve(mbrshp_view, current_view), cached (DESIGN.md §11.5). A new
  /// peer sync message is folded in; anything else that moves an input
  /// (our own sync sent or stored, a sync replaced, on_start_change,
  /// on_view, a view install, recover, corrupt_view_epoch) makes the next
  /// use rebuild it.
  const SyncResolution& candidate_resolution() const {
    refresh_candidate();
    return candidate_;
  }

 protected:
  // Inheritance hooks from WvRfifoEndpoint (transition restrictions of
  // Figure 10).
  void desired_reliable_set(std::vector<ProcessId>& out) const override;
  bool deliver_allowed(std::size_t lane, ProcessId q,
                       std::int64_t next_index) const override;
  bool view_gate(const View& v, ProcessSet& transitional) override;
  void views_moved() override { candidate_stale_ = true; }
  void pre_view_effects(const View& v) override;
  bool run_child_tasks() override;
  bool handle_child_message(ProcessId from, const std::any& payload) override;
  void handle_start_change(StartChangeId cid, const ProcessSet& set) override;
  void reset_child_state() override;

  /// Hook for the Self Delivery child (Figure 11): gate on block status.
  virtual bool sync_send_allowed() const { return true; }

 private:
  bool try_send_sync_msg();
  bool try_forward();
  void store_sync(ProcessId from, const wire::SyncMsg& sync);
  /// The slot for sync_msg[q][cid], made empty if absent; `fresh` tells
  /// which. Marks the candidate cache stale when making it moves a record
  /// the cache may point at.
  SyncMsgData& sync_slot(ProcessId q, StartChangeId cid, bool& fresh);
  void relay_as_leader(ProcessId origin, const wire::SyncMsg& sync);
  /// Two-tier relay fan-out for a leader: other present leaders, own local
  /// members, and orphans (processes whose leader is absent).
  std::set<ProcessId> relay_dests(const ProcessSet& change_set) const;
  /// Rebuild candidate_ and deliver_limit_ if an input moved since the last
  /// build.
  void refresh_candidate() const;
  /// Fold a newly stored peer sync message into a fresh candidate cache in
  /// O(N): it can only fill its sender's missing slot.
  void absorb(ProcessId from, StartChangeId cid, const SyncMsgData& sm);

  std::unique_ptr<ForwardingStrategy> strategy_;
  SyncRouting routing_;
  VsStats vs_stats_;

  // ---- Figure 10 state extension ----
  std::optional<std::pair<StartChangeId, ProcessSet>> start_change_;
  /// sync_msg, ascending by sender (the order handle_start_change and the
  /// forwarding strategies emit in). A SyncMsgData never moves while its
  /// sender's `by_cid` keeps its capacity and nothing is inserted before it.
  std::vector<SenderSyncs> sync_msgs_;
  /// forwarded_set: (dest, orig, view, index) tuples already forwarded.
  std::set<std::tuple<ProcessId, ProcessId, ViewId, std::int64_t>>
      forwarded_set_;

  // ---- Candidate cache, derived from the state above and the parent's
  // views (DESIGN.md §11.5). ----
  mutable bool candidate_stale_ = true;
  mutable SyncResolution candidate_;
  /// deliver_limit_[i]: the highest index deliver_allowed admits on lane i.
  mutable std::vector<std::int64_t> deliver_limit_;
  /// deliver_limit_ is candidate_.agreed: the candidate is the membership
  /// view for our start_change and our own cut is committed.
  mutable bool limit_is_agreed_ = false;
  /// start_change.set − {self} as NodeIds, for the direct sync multicast;
  /// rebuilt into kept storage once per start_change.
  std::vector<net::NodeId> sync_dests_;
};

/// Section 5.2.2, first strategy: forward every committed message a peer's
/// latest same-view sync message shows as missing. Simple; may send
/// multiple copies of the same message from different end-points.
class SimpleForwardingStrategy final : public ForwardingStrategy {
 public:
  const char* name() const override { return "simple"; }
  std::vector<ForwardAction> select(const VsRfifoTsEndpoint& ep) override;
};

/// Section 5.2.2, second strategy: once the membership view and all relevant
/// sync messages are known, the transitional-set member with the minimum id
/// among those holding a message forwards it — usually exactly one copy.
class MinCopiesForwardingStrategy final : public ForwardingStrategy {
 public:
  const char* name() const override { return "min-copies"; }
  std::vector<ForwardAction> select(const VsRfifoTsEndpoint& ep) override;
};

}  // namespace vsgc::gcs
