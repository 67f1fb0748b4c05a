// Wire messages exchanged between GCS end-points over CO_RFIFO
// (the four message tags of Figures 9 and 10, plus the hierarchy's
// aggregate sync).
//
// Each struct lists its fields once, in wire order, in `fields()`; the
// codec, the encoded size and the decode checks derive from that list
// (util/wire_codec.hpp). The simulator hands structured objects across, but
// the derived encoding is the real wire format: byte accounting uses
// codec::wire_size, and tests/codec_test.cpp round-trips every struct and
// pins its bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gcs/app_msg.hpp"
#include "membership/view.hpp"
#include "util/ids.hpp"
#include "util/shared_array.hpp"
#include "util/wire_codec.hpp"

namespace vsgc::gcs::wire {

/// A sync message's cut: (sender, index) pairs, strictly ascending by
/// sender, in one immutable refcounted body (DESIGN.md §11.5). The sender's
/// own record, the SyncMsg it sends and every receiver's stored copy hold
/// that one body. It encodes exactly as a std::map<ProcessId, std::int64_t>.
using Cut = util::SharedArray<std::pair<ProcessId, std::int64_t>>;

/// cut[q], or 0 for a sender the cut does not name.
inline std::int64_t cut_of(const Cut& cut, ProcessId q) {
  auto it = std::lower_bound(
      cut.begin(), cut.end(), q,
      [](const auto& entry, ProcessId p) { return entry.first < p; });
  return it == cut.end() || it->first != q ? 0 : it->second;
}

/// The decode check of every cut: the map encoding's strictly ascending
/// keys, so a decoded cut re-encodes to the bytes it came from.
inline void validate_cut(const Cut& cut) {
  for (std::size_t i = 1; i < cut.size(); ++i) {
    if (!(cut[i - 1].first < cut[i].first)) {
      throw DecodeError("cut senders not strictly ascending");
    }
  }
}

enum class Tag : std::uint8_t {
  kViewMsg = 1,
  kAppMsg = 2,
  kFwdMsg = 3,
  kSyncMsg = 4,
  kAggregateSync = 5,
};

/// tag=view_msg: announces that subsequent application messages from the
/// sender belong to `view`.
struct ViewMsg {
  static constexpr Tag kTag = Tag::kViewMsg;
  View view{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.view);
  }

  friend bool operator==(const ViewMsg&, const ViewMsg&) = default;
};

/// tag=app_msg: an original application message (sent in the sender's
/// current view; the receiver associates it with the sender's latest ViewMsg).
struct AppMsgWire {
  static constexpr Tag kTag = Tag::kAppMsg;
  AppMsg msg{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.msg);
  }

  friend bool operator==(const AppMsgWire&, const AppMsgWire&) = default;
};

/// tag=fwd_msg: a message forwarded on behalf of `orig`, with the view it was
/// originally sent in and its index in the per-sender FIFO stream.
struct FwdMsg {
  static constexpr Tag kTag = Tag::kFwdMsg;
  ProcessId orig{};
  View view{};
  std::int64_t index = 0;  ///< 1-based FIFO index in msgs[orig][view]
  AppMsg msg{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.orig, s.view, s.index, s.msg);
  }

  friend bool operator==(const FwdMsg&, const FwdMsg&) = default;
};

/// tag=sync_msg: virtual synchrony synchronization message, tagged with the
/// sender's (locally unique) start_change id. `cut[q]` is the index of the
/// last message from q the sender commits to deliver before any view v' with
/// v'.startId(sender) == cid.
struct SyncMsg {
  static constexpr Tag kTag = Tag::kSyncMsg;
  StartChangeId cid{};
  View view{};  ///< sender's current view when the sync message was sent
  Cut cut{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.cid, s.view, s.cut);
  }

  void validate() const { validate_cut(cut); }

  friend bool operator==(const SyncMsg&, const SyncMsg&) = default;
};

/// tag=aggregate_sync: two-tier hierarchy extension (paper Section 9, after
/// Guo et al. [22]): a leader relays the synchronization messages of the
/// processes it aggregates for, as one batched message. `hops` prevents
/// relay loops: 0 = sent by the originating leader (other leaders forward it
/// to their local members once), 1 = already forwarded. Each entry's SyncMsg
/// keeps its own tag byte on the wire.
struct AggregateSyncMsg {
  static constexpr Tag kTag = Tag::kAggregateSync;
  std::uint8_t hops = 0;
  std::vector<std::pair<ProcessId, SyncMsg>> entries{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.hops, s.entries);
  }

  friend bool operator==(const AggregateSyncMsg&,
                         const AggregateSyncMsg&) = default;
};

}  // namespace vsgc::gcs::wire
