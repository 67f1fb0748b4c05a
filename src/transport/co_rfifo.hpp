// CO_RFIFO: connection-oriented reliable FIFO multicast (paper Figure 3).
//
// One CoRfifoTransport instance runs at each node; together they implement
// the centralized CO_RFIFO automaton of the paper over the unreliable
// datagram network. The transport is addressed by net::NodeId so the same
// substrate serves GCS end-points (client<->client), membership clients
// (client<->server) and membership servers (server<->server) — mirroring the
// paper's layering over the reliable datagram service of [36].
//
// Semantics provided:
//
//   * send(set, m): best-effort multicast; for destinations in reliable_set
//     the stream is gap-free FIFO (sequence numbers + cumulative acks +
//     retransmission).
//   * set_reliable(set): maintain reliable connections to `set` only. For a
//     peer removed from the set, an arbitrary suffix of in-flight messages
//     may be lost (the implementation drops the unacked suffix and abandons
//     the connection — Figure 3's lose(p, q)). Re-adding a peer starts a
//     fresh connection incarnation, so a stale stream never resumes mid-gap.
//   * crash()/recover(): Section 8 semantics — a crash wipes all transport
//     state; recovery starts new incarnations everywhere.
//
// Data plane (DESIGN.md §11): messages sent to the same peer in one sim
// instant coalesce into multi-entry wire::Frame batches; data frames
// piggyback the reverse stream's cumulative ack (suppressing most
// standalone ack frames); a per-peer credit window bounds `unacked`, a
// receive window bounds `out_of_order`, and the retransmit timer backs off
// exponentially (reset on ack progress) so partitions don't cause duplicate
// storms.
//
// Per-peer state (DESIGN.md §11.6): everything the transport keeps about one
// peer, both directions of the stream, is one entry of a flat table (no tree
// per peer). A packet or a timer finds its entry once, by slot; a timer's
// closure carries the slot itself. Any upcall may send to a new peer and grow
// the table, which moves the entries, so no reference into it survives an
// upcall: the code re-reads the entry by slot after each.
//
// The `live_set` of the spec models real network connectivity; in this
// implementation that role is played by the vsgc::net::Network fault state,
// and the spec checker (src/spec/co_rfifo_spec) tracks it from trace events.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"
#include "transport/frame.hpp"
#include "util/flat_table.hpp"
#include "util/ids.hpp"
#include "util/interval_set.hpp"
#include "util/ring_queue.hpp"

namespace vsgc::transport {

/// One batched entry travelling inside a Frame: the refcounted payload handle
/// plus its modeled serialized size. Sequence numbers are implicit — entry i
/// of a frame carries header.base_seq + i.
struct FrameEntry {
  std::uint64_t seq = 0;  ///< explicit in sender-side buffers for ack trims
  net::Payload payload;   ///< refcounted — copying an entry never copies bytes
  std::size_t payload_size = 0;
  std::uint32_t group = 0;  ///< multiplexed channel tag (DESIGN.md §13)
};

/// The in-simulator frame: a wire::FrameHeader plus structured entries (the
/// byte-level twin, wire::EncodedFrame, is what the codec tests exercise).
struct Frame {
  wire::FrameHeader header{};
  std::vector<FrameEntry> entries{};
};

/// Per-packet overhead of a single-entry frame (one frame header + one entry
/// header). Loopback accounting and legacy single-message byte expectations
/// are stated in terms of this constant.
constexpr std::size_t kPacketHeaderBytes =
    wire::kFrameHeaderBytes + wire::kFrameEntryBytes;

class CoRfifoTransport {
 public:
  /// Base retransmit interval; the timer backs off exponentially from it:
  /// interval = kRetransmitTimeout * min(2^k, kBackoffLimit).
  static constexpr sim::Time kRetransmitTimeout = 20 * sim::kMillisecond;
  static constexpr std::uint32_t kBackoffLimit = 8;
  static constexpr std::size_t kMaxBatch = 64;  ///< max entries per data frame
  /// Credit window: max unacked entries per peer. Further sends queue in
  /// `pending` until acks return credits.
  static constexpr std::size_t kSendWindow = 256;
  /// Receive window: out-of-order entries at or beyond next_expected +
  /// kRecvWindow are dropped (counted in ooo_dropped), bounding the reorder
  /// buffer against adversarial or badly reordered traffic.
  static constexpr std::size_t kRecvWindow = 256;
  static constexpr std::size_t kMaxFrameCells = 64;  ///< DESIGN.md §11.1

  struct Stats {
    std::uint64_t messages_sent = 0;  ///< upper-layer sends (per destination)
    std::uint64_t messages_delivered = 0;
    std::uint64_t retransmissions = 0;  ///< timer re-sends + reset re-homing
    std::uint64_t acks_sent = 0;        ///< standalone ack/reset frames
    std::uint64_t acks_piggybacked = 0; ///< due acks carried by data frames
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t loopbacks_dropped = 0;  ///< self-sends lost to our crash
    std::uint64_t bytes_sent = 0;  ///< includes loopback payload + header
    std::uint64_t frames_sent = 0;   ///< wire frames (data, ack, reset)
    std::uint64_t entries_sent = 0;  ///< data entries across all frames
    std::uint64_t ooo_dropped = 0;   ///< entries beyond the receive window
    std::uint64_t window_stalls = 0; ///< flushes blocked on zero credits
    std::uint64_t peak_unacked = 0;        ///< max unacked entries, any peer
    std::uint64_t peak_out_of_order = 0;   ///< max reorder buffer, any peer
    std::uint64_t peak_pending = 0;        ///< max credit-stalled queue
    /// Streams reset by the self-stabilization guards (DESIGN.md §12):
    /// impossible ack/seq state detected at either end. Zero in any
    /// corruption-free execution.
    std::uint64_t corruption_resets = 0;
    std::uint64_t sack_runs_sent = 0;   ///< selective-ack runs put on the wire
    std::uint64_t sack_suppressed = 0;  ///< retransmits skipped via peer SACK
    std::uint64_t frame_cells_allocated = 0;  ///< frame cells ever made
  };

  using DeliverFn =
      std::function<void(net::NodeId from, const std::any& payload)>;
  using GroupDeliverFn = std::function<void(
      net::NodeId from, std::uint32_t group, const std::any& payload)>;
  using BatchHookFn = std::function<void()>;
  using ResetFn = std::function<void(net::NodeId peer)>;

  CoRfifoTransport(sim::Simulator& sim, net::Network& network,
                   net::NodeId self);
  ~CoRfifoTransport();

  CoRfifoTransport(const CoRfifoTransport&) = delete;
  CoRfifoTransport& operator=(const CoRfifoTransport&) = delete;

  /// Register the upper-layer delivery handler (gap-free FIFO per sender).
  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Group-aware delivery handler for multiplexed channels (DESIGN.md §13):
  /// when set it takes precedence over the plain handler and additionally
  /// receives the frame's group tag, letting one shared per-peer session
  /// fan deliveries out to many logical channels (a ChannelMux installs
  /// this). FIFO order holds across the whole session, hence per group too.
  void set_group_deliver_handler(GroupDeliverFn fn) {
    group_deliver_ = std::move(fn);
  }

  /// Batch-aware delivery bracket: `begin` fires before the in-order drain of
  /// a multi-entry frame, `end` after it. Endpoints use this to defer their
  /// pump until the whole batch has been absorbed (one pump per frame rather
  /// than one per message).
  void set_batch_hooks(BatchHookFn begin, BatchHookFn end) {
    deliver_begin_ = std::move(begin);
    deliver_end_ = std::move(end);
  }

  /// Raw datagram side-channel: non-Frame payloads arriving at this node
  /// (e.g. failure-detector heartbeats) bypass the reliable machinery.
  void set_raw_handler(DeliverFn fn) { raw_ = std::move(fn); }

  /// Fire-and-forget datagram outside the reliable stream (no seq, no
  /// retransmit, no buffering). Used for heartbeats.
  void send_raw(net::NodeId to, net::Payload payload,
                std::size_t payload_size = 0) {
    if (crashed_) return;
    stats_.bytes_sent += payload_size;
    network_.send(self_, to, std::move(payload), payload_size);
  }

  /// Multicast `payload` to every destination in `dests` (self allowed; a
  /// self-destination is delivered locally after a scheduling hop). The
  /// payload is wrapped into one refcounted handle here; fan-out, unacked
  /// buffering, and retransmission all share it. `group` tags the entries
  /// with a multiplexed channel id (0 = the untagged default channel); all
  /// groups share this peer pair's single sequence space, ack stream, and
  /// retransmit budget.
  void send(const std::set<net::NodeId>& dests, net::Payload payload,
            std::size_t payload_size = 0, std::uint32_t group = 0) {
    send_sorted(dests, std::move(payload), payload_size, group);
  }
  /// The same for destinations held ascending and without duplicates in
  /// storage the caller keeps (the endpoints' cached destination lists).
  void send(std::span<const net::NodeId> dests, net::Payload payload,
            std::size_t payload_size = 0, std::uint32_t group = 0) {
    send_sorted(dests, std::move(payload), payload_size, group);
  }

  /// Maintain reliable gap-free connections to exactly `set` (plus self).
  void set_reliable(const std::set<net::NodeId>& set) { assign_reliable(set); }
  /// The same for a set held ascending and without duplicates.
  void set_reliable(std::span<const net::NodeId> set) { assign_reliable(set); }
  const std::set<net::NodeId>& reliable_set() const { return reliable_set_; }
  /// Moves whenever the reliable set may have been written: set_reliable,
  /// corrupt_drop_reliable and crash. While it stands still, so does the
  /// set, so a check of the set made at one generation holds until the next.
  std::uint32_t reliable_generation() const { return reliable_generation_; }

  /// Section 8: crash wipes all state and stops all activity.
  void crash();
  /// Section 8: recover with fresh incarnations; peers resynchronize.
  void recover();
  bool crashed() const { return crashed_; }

  const Stats& stats() const { return stats_; }
  net::NodeId self() const { return self_; }

  /// Approximate heap held by per-peer stream state: the peer table's
  /// capacity, the send queues' capacity, reorder and SACK runs, the reliable
  /// set. Nothing else: a crashed or fresh transport reads the same value.
  /// bench_scale uses this for its per-member-memory-vs-N sublinearity fit.
  std::size_t resident_bytes() const;

  /// Optional span instrumentation (DESIGN.md §10): when set AND the bus has
  /// lifecycle on, retransmission bursts emit spec::XportRetransmit events.
  /// Zero-cost otherwise (one branch per burst, not per packet).
  void set_trace(spec::TraceBus* trace) { trace_ = trace; }

  /// Fired whenever a self-stabilization guard resets a stream because it
  /// detected impossible ack/seq state (DESIGN.md §12). The upper layer uses
  /// this to force a membership re-sync: a transport reset alone cannot heal
  /// endpoint-level delivery-index drift — only a view change does.
  void set_reset_handler(ResetFn fn) { reset_handler_ = std::move(fn); }

  // State-corruption hooks (DESIGN.md §12, sim::FaultOp kCorrupt* kinds).
  // Each mutates live stream state toward `peer` and returns false when no
  // such stream exists (the injector records the op either way; a false
  // return just means the draw hit a dormant stream).
  bool corrupt_outgoing_seq(net::NodeId peer, std::uint64_t delta);
  bool corrupt_ack_cursor(net::NodeId peer, std::uint64_t delta);
  bool corrupt_drop_reliable(net::NodeId peer);
  bool corrupt_backoff(net::NodeId peer, std::uint32_t value);

 private:
  struct Outgoing {
    std::uint64_t incarnation = 0;
    std::uint64_t next_seq = 1;  ///< seq for the next new message
    std::uint64_t acked = 0;     ///< highest cumulatively acked seq
    util::RingQueue<FrameEntry> pending;  ///< sent by app, not yet framed
    util::RingQueue<FrameEntry> unacked;  ///< framed, in flight, resendable
    /// Seqs above `acked` the peer has selectively acked (runs from its SACK
    /// blocks): the retransmit timer skips them, so one loss gap costs one
    /// re-send instead of a whole-window burst (DESIGN.md §13).
    util::IntervalSet peer_sacked;
    sim::TimerHandle flush_timer;
    sim::TimerHandle retransmit_timer;
    std::uint32_t backoff = 1;  ///< current retransmit-interval multiplier
  };

  struct Incoming {
    std::uint64_t incarnation = 0;
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, FrameEntry> out_of_order;  ///< bounded: kRecvWindow
    /// Run-length twin of out_of_order's key set: O(log runs) duplicate
    /// classification and O(runs) SACK-block generation, where runs is the
    /// number of loss gaps — not the window size (DESIGN.md §13).
    util::IntervalSet received;
    bool ack_due = false;  ///< received data not yet acked (any frame kind)
    sim::TimerHandle ack_timer;
  };

  /// Both directions of the stream with one peer: one entry of `peers_`.
  /// An absent peer behaves exactly like an entry at its default values.
  struct Peer {
    Outgoing out;
    Incoming in;
  };
  using PeerTable = util::FlatTable<net::NodeId, Peer>;
  /// A peer's place in `peers_`: stable until crash() clears the table.
  using Slot = PeerTable::Slot;

  void on_packet(net::NodeId from, const std::any& raw);
  void handle_data(Slot s, const Frame& frame);
  void handle_ack(Slot s, std::uint64_t incarnation, std::uint64_t ack_seq,
                  const util::IntervalSet& sack);
  /// Route one delivered payload to the group-aware handler if installed,
  /// else the plain handler.
  void deliver_up(net::NodeId from, std::uint32_t group,
                  const std::any& payload);
  void handle_reset(Slot s, std::uint64_t incarnation);
  void flush(Slot s);
  void schedule_flush(Slot s);
  void attach_piggyback(Slot s, Frame& frame);
  /// send() and set_reliable() over either form of an ascending set.
  template <class Sorted>
  void send_sorted(const Sorted& dests, net::Payload payload,
                   std::size_t payload_size, std::uint32_t group);
  template <class Sorted>
  void assign_reliable(const Sorted& set);

  /// Hands out the next free frame cell, cleared; transmit_frame() sends it.
  Frame& acquire_frame();
  void transmit_frame(net::NodeId to);
  /// Re-sends one frame of out.unacked[i..] to peer `s`: at most
  /// min(limit, kMaxBatch) entries of one group, none the peer SACKed.
  /// Returns how many it sent.
  std::size_t resend(Slot s, std::size_t i, std::size_t limit);
  void send_reset_request(net::NodeId to, std::uint64_t incarnation);
  void send_standalone_ack(Slot s);
  void schedule_ack(Slot s);
  void arm_retransmit(Slot s);
  std::uint64_t fresh_incarnation();
  /// Re-home the stream to peer `s` under a fresh incarnation (shared by
  /// legit peer reset requests and the corruption guards).
  /// `detected_corruption` counts the reset in stats and fires the reset
  /// handler.
  void reset_stream(Slot s, bool detected_corruption);
  /// Self-stabilization guard: verify the outgoing cursor invariants toward
  /// peer `s` (unacked spans exactly (acked, next_seq)); on violation reset
  /// the stream and return true. Holds by construction absent corruption.
  bool audit_outgoing(Slot s);

  sim::Simulator& sim_;
  net::Network& network_;
  net::NodeId self_;
  Stats stats_;
  DeliverFn deliver_;
  GroupDeliverFn group_deliver_;
  DeliverFn raw_;
  BatchHookFn deliver_begin_;
  BatchHookFn deliver_end_;
  ResetFn reset_handler_;
  spec::TraceBus* trace_ = nullptr;

  std::set<net::NodeId> reliable_set_;
  PeerTable peers_;
  /// Frame cells in ring order (DESIGN.md §11.1): `open` is the one handed
  /// out last, `next` the least recently sent.
  struct FrameCells {
    std::vector<std::shared_ptr<std::any>> ring;
    std::size_t open = 0;
    std::size_t next = 0;
  };
  FrameCells cells_;
  std::uint64_t incarnation_counter_ = 0;
  bool crashed_ = false;
  std::uint32_t reliable_generation_ = 0;
};

}  // namespace vsgc::transport
