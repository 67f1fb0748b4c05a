// Baseline: classic TWO-round virtually synchronous multicast in the style
// the paper compares against ([7] Totem, [22] structured virtual synchrony).
//
// Differences from the paper's one-round GCS end-point:
//
//   1. It cannot start synchronizing on a start_change notification, because
//      its synchronization messages must be tagged with a globally agreed
//      identifier. It waits for the membership view, then runs an extra
//      agreement round ("agree" on the view identifier) before the cut
//      exchange — i.e. the virtual synchrony rounds run strictly AFTER the
//      membership round instead of in parallel.
//   2. It processes membership views in arrival order: an invocation that
//      has gathered full agreement runs to termination even when a newer
//      view is already known, so cascading reconfigurations make it deliver
//      obsolete views to the application (the paper's Section 1 critique).
//      A pending view is abandoned only when its agreement round is still
//      incomplete or a later view excludes one of its participants.
//
// The baseline still satisfies all the safety specs (it is a correct virtual
// synchrony algorithm — tests attach the same checkers); it is simply slower
// and noisier, which is exactly what benches E1/E3/E5 quantify.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "gcs/vs_rfifo_ts_endpoint.hpp"  // for SyncMsgData
#include "gcs/wv_rfifo_endpoint.hpp"
#include "util/wire_codec.hpp"

namespace vsgc::baseline {

namespace wire {

/// Tags of the baseline's two extra rounds, outside the ranges of
/// gcs::wire::Tag and membership::wire::Tag.
enum class Tag : std::uint8_t {
  kAgree = 32,
  kSync = 33,
};

/// Round 1: confirm participation in the change to view `target`.
struct AgreeMsg {
  static constexpr Tag kTag = Tag::kAgree;
  ViewId target{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.target);
  }

  friend bool operator==(const AgreeMsg&, const AgreeMsg&) = default;
};

/// Round 2: cut exchange, tagged with the agreed view identifier.
struct SyncMsg {
  static constexpr Tag kTag = Tag::kSync;
  ViewId target{};
  View view{};  ///< sender's current view
  gcs::wire::Cut cut{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.target, s.view, s.cut);
  }

  void validate() const { gcs::wire::validate_cut(cut); }

  friend bool operator==(const SyncMsg&, const SyncMsg&) = default;
};

}  // namespace wire

class TwoRoundEndpoint : public gcs::WvRfifoEndpoint {
 public:
  struct BaselineStats {
    std::uint64_t agrees_sent = 0;
    std::uint64_t sync_msgs_sent = 0;
    std::uint64_t forwards_sent = 0;
    std::uint64_t obsolete_views_delivered = 0;
    std::uint64_t views_abandoned = 0;
  };

  TwoRoundEndpoint(sim::Simulator& sim, transport::Channel transport,
                   ProcessId self, spec::TraceBus* trace = nullptr);

  /// Input block_ok_p() from the client.
  void block_ok();

  void on_view(const View& v) override;

  const BaselineStats& baseline_stats() const { return baseline_stats_; }
  /// Membership views queued for installation, oldest first.
  const std::deque<View>& pending() const { return pending_; }

 protected:
  const View& next_view_candidate() const override;
  void desired_reliable_set(std::vector<ProcessId>& out) const override;
  bool deliver_allowed(std::size_t lane, ProcessId q,
                       std::int64_t next_index) const override;
  bool view_gate(const View& v, ProcessSet& transitional) override;
  void pre_view_effects(const View& v) override;
  bool run_child_tasks() override;
  bool handle_child_message(ProcessId from, const std::any& payload) override;
  void handle_start_change(StartChangeId cid, const ProcessSet& set) override;
  void reset_child_state() override;

 private:
  enum class BlockStatus { kUnblocked, kRequested, kBlocked };

  bool try_block();
  bool try_send_agree();
  bool try_send_sync();
  bool try_forward();
  void prune_pending();
  /// Participants whose agreement/cuts the round for `target` needs.
  std::set<ProcessId> participants(const View& target) const;
  bool agree_complete(const View& target) const;
  const gcs::SyncMsgData* sync_of(ViewId target, ProcessId q) const;
  std::set<ProcessId> transitional_for(const View& target) const;

  BaselineStats baseline_stats_;
  std::deque<View> pending_;
  bool start_change_seen_ = false;
  BlockStatus block_status_ = BlockStatus::kUnblocked;
  std::map<ViewId, std::set<ProcessId>> agrees_;
  std::map<ViewId, std::map<ProcessId, gcs::SyncMsgData>> syncs_;
  std::set<ViewId> agree_sent_;
  std::set<ViewId> sync_sent_;
  std::set<std::tuple<ProcessId, ProcessId, ViewId, std::int64_t>>
      forwarded_set_;
};

}  // namespace vsgc::baseline
