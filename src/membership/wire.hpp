// Wire messages of the client-server membership protocol (our Moshe-style
// [27] implementation of the MBRSHP spec). Each struct lists its fields
// once, in wire order, in `fields()`; the codec and the encoded size derive
// from that list (util/wire_codec.hpp), and `validate()` holds the decode
// checks that go beyond the field types. tests/codec_test.cpp round-trips
// every struct and pins its bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "membership/process_set.hpp"
#include "membership/view.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/shared_array.hpp"
#include "util/wire_codec.hpp"

namespace vsgc::membership::wire {

enum class Tag : std::uint8_t {
  kStartChange = 16,
  kViewDelivery = 17,
  kProposal = 18,
  kHeartbeat = 19,
  kLeave = 20,
  kViewDelta = 21,
};

/// Server -> client: the membership service is attempting to form a new view.
/// Every local client's StartChange of a round shares the server's one
/// estimate; the wire bytes are those of the plain set.
struct StartChange {
  static constexpr Tag kTag = Tag::kStartChange;
  StartChangeId cid{};
  ProcessSet set{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    ProcessSet::with_plain(s.set, [&](auto& set) { v(s.cid, set); });
  }

  friend bool operator==(const StartChange&, const StartChange&) = default;
};

/// Server -> client: the agreed-upon new view.
struct ViewDelivery {
  static constexpr Tag kTag = Tag::kViewDelivery;
  View view{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.view);
  }

  friend bool operator==(const ViewDelivery&, const ViewDelivery&) = default;
};

/// Server -> client: a new view expressed as a delta against the view the
/// server last sent this client (DESIGN.md §13). Clients identify views by
/// id, and CO_RFIFO delivers view notifications in order, so the server
/// knows the client's current view and can ship only the churn:
///
///   members  = base.members − leaves ∪ keys(joins)
///   start_id = base.start_id + cid_bump for survivors (the paper's servers
///              issue one fresh cid per client per round, so survivors
///              usually advance in lockstep), patched by `exceptions`,
///              absolute for joins.
///
/// Wire cost is O(churn + exceptions) instead of O(N). The server falls
/// back to a full ViewDelivery whenever it has no base for the client (new
/// attach, crash/recovery, lost unacked suffix) or the delta would not be
/// smaller; a client that cannot apply a delta (base mismatch after a lost
/// suffix) drops it and resyncs, forcing the server back to full form.
struct ViewDelta {
  static constexpr Tag kTag = Tag::kViewDelta;
  ViewId id{};                 ///< the new view's id
  ViewId base{};               ///< id of the view this delta applies to
  std::uint64_t cid_bump = 0;  ///< common start-id advance for survivors
  std::set<ProcessId> leaves{};
  std::map<ProcessId, StartChangeId> joins{};
  std::map<ProcessId, StartChangeId> exceptions{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.id, s.base, s.cid_bump, s.leaves, s.joins, s.exceptions);
  }

  /// Decode check: a delta must advance the view id, and no process may
  /// both join and leave.
  void validate() const {
    if (!(base < id)) {
      throw DecodeError("view delta must advance the view id");
    }
    for (ProcessId p : leaves) {
      if (joins.contains(p)) {
        throw DecodeError("view delta joins and leaves overlap");
      }
    }
  }

  /// Express `next` as a delta over `base_view` (any two well-formed views).
  static ViewDelta diff(const View& base_view, const View& next) {
    ViewDelta d;
    d.id = next.id;
    d.base = base_view.id;
    for (ProcessId p : base_view.members()) {
      if (!next.contains(p)) d.leaves.insert(p);
    }
    bool bump_set = false;
    for (const auto& [p, cid] : next.start_id()) {
      if (!base_view.contains(p)) {
        d.joins[p] = cid;
        continue;
      }
      const std::uint64_t b = base_view.start_id_of(p).value;
      if (!bump_set && cid.value >= b) {
        // The first survivor fixes the common bump; outliers become
        // exceptions below (ordered iteration keeps this deterministic).
        d.cid_bump = cid.value - b;
        bump_set = true;
      }
      if (b + d.cid_bump != cid.value) d.exceptions[p] = cid;
    }
    return d;
  }

  /// Reconstruct the full view, or nullopt if the delta does not apply to
  /// `base_view` (id mismatch, a leave that is not a member, an exception
  /// that is not a survivor, a join that already is one) — the client-side
  /// forged/stale-delta rejection path. The new view is merged straight
  /// into its flat body: survivors and joins in one ascending pass.
  std::optional<View> apply(const View& base_view) const {
    if (base_view.id != base) return std::nullopt;
    const auto survives = [&](ProcessId p) {
      return base_view.contains(p) && !leaves.contains(p);
    };
    for (ProcessId p : leaves) {
      if (!base_view.contains(p)) return std::nullopt;
    }
    for (const auto& [p, cid] : exceptions) {
      if (!survives(p)) return std::nullopt;
    }
    for (const auto& [p, cid] : joins) {
      if (survives(p)) return std::nullopt;
    }
    const std::size_t n = base_view.members().size() - leaves.size() +
                          joins.size();
    if (n == 0) return std::nullopt;
    return View(id, View::StartIds::build(n, [&](auto* out) {
      auto left = leaves.begin();
      auto exception = exceptions.begin();
      auto join = joins.begin();
      for (const auto& [p, base_cid] : base_view.start_id()) {
        for (; join != joins.end() && join->first < p; ++join) *out++ = *join;
        if (left != leaves.end() && *left == p) {
          ++left;
          continue;
        }
        StartChangeId cid{base_cid.value + cid_bump};
        if (exception != exceptions.end() && exception->first == p) {
          cid = exception++->second;
        }
        *out++ = {p, cid};
      }
      for (; join != joins.end(); ++join) *out++ = *join;
    }));
  }

  friend bool operator==(const ViewDelta&, const ViewDelta&) = default;
};

/// Server -> server: round-tagged membership proposal. A proposal doubles as
/// the proposer's connectivity estimate: `local_alive` is the set of this
/// server's clients it currently believes alive.
///
/// `round` identifies the agreement round. A server issues AT MOST ONE
/// proposal per round, so the set {proposal(s, r) | s in participants} is
/// globally unique — every server that forms the round-r view computes the
/// IDENTICAL view (id = (r, min participant), members/startId from the
/// proposals). This is what makes concurrently formed views collision-free.
///
/// The three sets are flat shared bodies (DESIGN.md §11.5): `local_alive` a
/// ProcessSet, `cids` (process, cid) pairs ascending by process, the type
/// of a view's start ids, and `participants` ascending server ids. The
/// proposer's own record, the payload it sends and every receiver's record
/// share them, so handing a proposal on copies no node. Each encodes as the
/// std::set or std::map it stands for. The decoder checks only the order
/// those containers would; that the cids name exactly `local_alive` is for
/// the receiving server to check.
struct Proposal {
  static constexpr Tag kTag = Tag::kProposal;
  using Cids = View::StartIds;
  using Servers = util::SharedArray<ServerId>;

  ServerId from{};
  std::uint64_t round = 0;  ///< agreement round == epoch of the formed view
  ProcessSet local_alive{};
  Cids cids{};             ///< latest start_change ids issued
  Servers participants{};  ///< servers the proposer deems alive

  template <class S, class V>
  static void fields(S& s, V& v) {
    ProcessSet::with_plain(s.local_alive, [&](auto& local_alive) {
      v(s.from, s.round, local_alive, s.cids, s.participants);
    });
  }

  /// Decode check: cid keys and participants strictly ascending, as the
  /// std::map and std::set decoders require of theirs.
  void validate() const {
    const auto out_of_order = [](const auto& a, const auto& b) {
      return !(a < b);
    };
    if (std::ranges::adjacent_find(cids, out_of_order,
                                   &Cids::value_type::first) != cids.end() ||
        std::ranges::adjacent_find(participants, out_of_order) !=
            participants.end()) {
      throw DecodeError("container keys not strictly ascending");
    }
  }

  friend bool operator==(const Proposal&, const Proposal&) = default;
};

/// Raw (unreliable) heartbeat; a client heartbeat doubles as attach request.
///
/// `incarnation` identifies the sender's current life (Section 8): a client
/// picks a fresh value on every start/recovery. A server that sees a client's
/// incarnation change knows the client lost its state — even if the failure
/// detector never noticed the blip — and starts a fresh membership round so
/// the client receives a new (monotonically larger) view.
/// How often a client heartbeats to its server and a server to its peers.
inline constexpr sim::Time kHeartbeatInterval = 50 * sim::kMillisecond;

struct Heartbeat {
  static constexpr Tag kTag = Tag::kHeartbeat;
  bool from_server = false;
  std::uint32_t id = 0;             ///< ProcessId or ServerId value
  std::uint64_t incarnation = 0;    ///< sender's life identifier

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.from_server, s.id, s.incarnation);
  }

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// Client -> server (raw): graceful departure; the server excludes the
/// client immediately instead of waiting out the failure-detector timeout.
struct Leave {
  static constexpr Tag kTag = Tag::kLeave;
  ProcessId who{};

  template <class S, class V>
  static void fields(S& s, V& v) {
    v(s.who);
  }

  friend bool operator==(const Leave&, const Leave&) = default;
};

}  // namespace vsgc::membership::wire
