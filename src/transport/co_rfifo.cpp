#include "transport/co_rfifo.hpp"

#include <iterator>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vsgc::transport {

namespace {

std::size_t frame_wire_size(const Frame& f) {
  std::size_t bytes = wire::kFrameHeaderBytes;
  if (f.header.group != 0) bytes += wire::kGroupTagBytes;
  bytes += f.header.sack.num_runs() * wire::kSackRunBytes;
  for (const FrameEntry& e : f.entries) {
    bytes += e.payload_size + wire::kFrameEntryBytes;
  }
  return bytes;
}

void track_peak(std::uint64_t& peak, std::size_t size) {
  if (size > peak) peak = size;
}

/// Max entries re-sent per retransmit-timer fire.
constexpr std::size_t kRetransmitBatch = 64;

}  // namespace

CoRfifoTransport::CoRfifoTransport(sim::Simulator& sim, net::Network& network,
                                   net::NodeId self)
    : sim_(sim), network_(network), self_(self) {
  reliable_set_ = {self};
  network_.attach(self, [this](net::NodeId from, const std::any& raw) {
    on_packet(from, raw);
  });
}

CoRfifoTransport::~CoRfifoTransport() { network_.detach(self_); }

std::uint64_t CoRfifoTransport::fresh_incarnation() {
  // Monotone across crash/recovery without stable storage: simulated time is
  // globally monotone, the counter breaks same-instant ties.
  return (static_cast<std::uint64_t>(sim_.now()) << 16) |
         (++incarnation_counter_ & 0xffff);
}

void CoRfifoTransport::deliver_up(net::NodeId from, std::uint32_t group,
                                  const std::any& payload) {
  if (group_deliver_) {
    group_deliver_(from, group, payload);
  } else if (deliver_) {
    deliver_(from, payload);
  }
}

template <class Sorted>
void CoRfifoTransport::send_sorted(const Sorted& dests, net::Payload payload,
                                   std::size_t payload_size,
                                   std::uint32_t group) {
  if (crashed_) return;
  for (net::NodeId q : dests) {
    ++stats_.messages_sent;
    if (q == self_) {
      // Local loopback: still asynchronous (one scheduler hop), still FIFO.
      // Byte accounting matches a remote single-entry frame (payload + frame
      // header + entry header) so sync traffic tables don't under-count
      // self-addressed copies.
      stats_.bytes_sent += payload_size + kPacketHeaderBytes +
                           (group != 0 ? wire::kGroupTagBytes : 0);
      sim_.schedule(1, [this, payload, group]() {
        if (crashed_ || (!deliver_ && !group_deliver_)) {
          // A loopback in flight across our own crash is lost like any other
          // packet to a crashed node — count it instead of dropping silently.
          ++stats_.loopbacks_dropped;
          return;
        }
        ++stats_.messages_delivered;
        deliver_up(self_, group, payload.any());
      });
      continue;
    }
    const Slot s = peers_.insert(q);
    Outgoing& out = peers_.at(s).out;
    out.pending.push_back(FrameEntry{0, payload, payload_size, group});
    track_peak(stats_.peak_pending, out.pending.size());
    schedule_flush(s);
  }
}

void CoRfifoTransport::schedule_flush(Slot s) {
  Outgoing& out = peers_.at(s).out;
  if (out.flush_timer.pending()) return;
  // Zero delay still batches: every send to the peer in this sim instant
  // lands in `pending` before the flush event runs. The closure carries the
  // slot: crash() cancels it before the table is cleared.
  out.flush_timer = sim_.schedule(0, [this, s]() {
    if (crashed_) return;
    flush(s);
  });
}

void CoRfifoTransport::flush(Slot s) {
  Outgoing& out = peers_.at(s).out;
  out.flush_timer.cancel();
  if (audit_outgoing(s)) return;  // corrupted cursors: stream was re-homed
  while (!out.pending.empty()) {
    if (out.unacked.size() >= kSendWindow) {
      // Zero credits: the entries stay queued until an ack frees window
      // space (handle_ack re-enters flush), bounding `unacked` per peer.
      ++stats_.window_stalls;
      break;
    }
    if (out.incarnation == 0) out.incarnation = fresh_incarnation();
    Frame& f = acquire_frame();
    f.header.incarnation = out.incarnation;
    f.header.first_seq = out.acked + 1;
    f.header.base_seq = out.next_seq;
    f.header.group = out.pending.front().group;
    const std::size_t room = kSendWindow - out.unacked.size();
    std::size_t take = out.pending.size();
    if (take > kMaxBatch) take = kMaxBatch;
    if (take > room) take = room;
    // A frame carries one group tag, so a multiplexed burst breaks at group
    // boundaries (group-0-only traffic never does — PR 7 framing unchanged).
    std::size_t same_group = 1;
    while (same_group < take &&
           out.pending[same_group].group == f.header.group) {
      ++same_group;
    }
    take = same_group;
    f.entries.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      FrameEntry e = std::move(out.pending.front());
      out.pending.pop_front();
      e.seq = out.next_seq++;
      out.unacked.push_back(e);  // payload shared by refcount, not copied
      f.entries.push_back(std::move(e));
    }
    track_peak(stats_.peak_unacked, out.unacked.size());
    attach_piggyback(s, f);
    transmit_frame(peers_.key(s));
    arm_retransmit(s);
  }
}

void CoRfifoTransport::attach_piggyback(Slot s, Frame& frame) {
  Incoming& in = peers_.at(s).in;
  if (in.incarnation == 0) return;
  // The ack fields are part of the fixed frame header, so carrying the
  // latest cumulative ack on every data frame is free.
  frame.header.flags |= wire::kFlagHasAck;
  frame.header.ack_incarnation = in.incarnation;
  frame.header.ack_seq = in.next_expected - 1;
  // Selective ack: the reorder buffer's received runs ride along so the
  // sender can skip retransmitting across loss gaps. Empty (zero bytes) for
  // FIFO traffic; capped at kMaxSackRuns under pathological fragmentation
  // (the cumulative ack alone still converges).
  if (!in.received.empty() && in.received.num_runs() <= wire::kMaxSackRuns) {
    frame.header.sack = in.received;
    stats_.sack_runs_sent += in.received.num_runs();
  }
  if (in.ack_due) {
    // This frame replaces a standalone ack that would otherwise go out.
    ++stats_.acks_piggybacked;
    in.ack_due = false;
    in.ack_timer.cancel();
  }
}

Frame& CoRfifoTransport::acquire_frame() {
  // The next cell in ring order is the least recently sent; skip any that a
  // delivery closure still holds (DESIGN.md §11.1).
  auto& ring = cells_.ring;
  const std::size_t n = ring.size();
  std::size_t k = 0;
  while (k < n && ring[(cells_.next + k) % n].use_count() > 1) ++k;
  if (k == n) {
    // All in flight: a new cell joins the ring before the oldest, or at the
    // cap replaces it (the closure holding the old one frees it).
    ++stats_.frame_cells_allocated;
    if (n < kMaxFrameCells) ring.emplace(ring.begin() + cells_.next);
    ring[cells_.next] = std::make_shared<std::any>(std::in_place_type<Frame>);
    k = 0;
  }
  cells_.open = (cells_.next + k) % ring.size();
  cells_.next = (cells_.open + 1) % ring.size();
  Frame& f = *std::any_cast<Frame>(ring[cells_.open].get());
  f.header = wire::FrameHeader{};
  f.entries.clear();  // keeps the capacity
  return f;
}

void CoRfifoTransport::transmit_frame(net::NodeId to) {
  const std::shared_ptr<std::any>& cell = cells_.ring[cells_.open];
  Frame& frame = *std::any_cast<Frame>(cell.get());
  frame.header.count = static_cast<std::uint32_t>(frame.entries.size());
  const std::size_t bytes = frame_wire_size(frame);
  stats_.bytes_sent += bytes;
  ++stats_.frames_sent;
  stats_.entries_sent += frame.entries.size();
  // The delivery closure shares the cell itself, and the payload bytes in
  // its entries are shared by refcount with the unacked buffer: no copy.
  network_.send(self_, to, net::Payload::share(cell), bytes);
}

std::size_t CoRfifoTransport::resend(Slot s, std::size_t i,
                                     std::size_t limit) {
  const Outgoing& out = peers_.at(s).out;
  Frame& f = acquire_frame();
  f.header.incarnation = out.incarnation;
  f.header.first_seq = out.acked + 1;
  f.header.base_seq = out.unacked[i].seq;
  f.header.group = out.unacked[i].group;
  std::size_t take = 1;
  while (i + take < out.unacked.size() && take < limit &&
         take < kMaxBatch &&
         out.unacked[i + take].group == f.header.group &&
         !out.peer_sacked.contains(out.unacked[i + take].seq)) {
    ++take;
  }
  f.entries.reserve(take);
  for (std::size_t k = 0; k < take; ++k) {
    f.entries.push_back(out.unacked[i + k]);
  }
  stats_.retransmissions += take;
  attach_piggyback(s, f);
  transmit_frame(peers_.key(s));
  return take;
}

void CoRfifoTransport::send_reset_request(net::NodeId to,
                                          std::uint64_t incarnation) {
  Frame& reset = acquire_frame();
  reset.header.flags = wire::kFlagReset;
  reset.header.ack_incarnation = incarnation;
  ++stats_.acks_sent;
  transmit_frame(to);
}

void CoRfifoTransport::arm_retransmit(Slot s) {
  Outgoing& out = peers_.at(s).out;
  if (out.unacked.empty()) return;
  if (out.retransmit_timer.pending()) return;
  if (out.backoff == 0 || out.backoff > kBackoffLimit) {
    // Self-stabilization clamp (DESIGN.md §12): a corrupted multiplier would
    // either spin the timer at a zero interval or freeze retransmission.
    out.backoff = out.backoff == 0 ? 1 : kBackoffLimit;
  }
  out.retransmit_timer =
      sim_.schedule(kRetransmitTimeout * out.backoff, [this, s]() {
        if (crashed_) return;
        Outgoing& out = peers_.at(s).out;
        if (out.unacked.empty()) return;
        const net::NodeId to = peers_.key(s);
        if (!reliable_set_.contains(to)) return;  // abandoned connection
        if (audit_outgoing(s)) return;  // corrupted cursors: re-homed
        // Walk the unacked window, skipping entries the peer's SACK says it
        // already holds: one loss gap costs one re-send, not a window burst.
        // Frames break at SACK gaps and group boundaries (entries in a frame
        // are consecutive and share one group tag).
        std::size_t i = 0;
        std::size_t resent = 0;
        while (i < out.unacked.size() && resent < kRetransmitBatch) {
          if (out.peer_sacked.contains(out.unacked[i].seq)) {
            ++stats_.sack_suppressed;
            ++i;
            continue;
          }
          const std::size_t take = resend(s, i, kRetransmitBatch - resent);
          i += take;
          resent += take;
        }
        if (resent > 0 && trace_ != nullptr && trace_->lifecycle()) {
          trace_->emit(sim_.now(),
                       spec::XportRetransmit{self_.value, to.value, resent});
        }
        // No ack progress since the last fire: back off (capped) so a long
        // partition degenerates to a slow probe, not a duplicate storm.
        if (out.backoff < kBackoffLimit) {
          out.backoff *= 2;
          if (out.backoff > kBackoffLimit) {
            out.backoff = kBackoffLimit;
          }
        }
        arm_retransmit(s);
      });
}

template <class Sorted>
void CoRfifoTransport::assign_reliable(const Sorted& set) {
  ++reliable_generation_;  // a mux slice may have moved even while crashed
  if (crashed_) return;
  // One walk over both ascending sets: a peer only the new set names joins
  // before the cursor, a peer only the old set holds is abandoned and
  // erased (self stays), so the set keeps the nodes of every peer it keeps.
  auto want = set.begin();
  for (auto it = reliable_set_.begin(); it != reliable_set_.end();) {
    const net::NodeId q = *it;
    for (; want != set.end() && *want < q; ++want) {
      reliable_set_.insert(it, *want);
    }
    if (want != set.end() && *want == q) {
      ++want;
      ++it;
      continue;
    }
    it = q == self_ ? std::next(it) : reliable_set_.erase(it);
    const Slot s = peers_.find(q);
    if (s == PeerTable::kNone) continue;
    // Peer dropped from the reliable set: abandon the connection. The unacked
    // suffix is lost (Figure 3's lose(p, q)); a later re-add starts fresh.
    Outgoing& out = peers_.at(s).out;
    out.pending.clear();
    out.unacked.clear();
    out.peer_sacked.clear();
    out.flush_timer.cancel();
    out.retransmit_timer.cancel();
    out.incarnation = 0;  // next send() to q gets a new incarnation
    out.next_seq = 1;
    out.acked = 0;
    out.backoff = 1;
  }
  for (; want != set.end(); ++want) {
    reliable_set_.insert(reliable_set_.end(), *want);
  }
  // A peer re-entering the set may have a live stream whose retransmit timer
  // was lost while it was outside (e.g. a corrupted reliable_set dropped it
  // and the timer body bailed on the membership check). Re-arm so in-flight
  // entries are not stranded until the next fresh send. The walk is the
  // set's, so timers are armed in NodeId order.
  for (net::NodeId q : reliable_set_) {
    if (q == self_) continue;
    const Slot s = peers_.find(q);
    if (s != PeerTable::kNone && !peers_.at(s).out.unacked.empty()) {
      arm_retransmit(s);
    }
  }
}

void CoRfifoTransport::on_packet(net::NodeId from, const std::any& raw) {
  if (crashed_) return;
  const auto* frame = std::any_cast<Frame>(&raw);
  if (frame == nullptr) {
    if (raw_) raw_(from, raw);
    return;
  }
  // The one lookup of this packet. Only data opens a stream: an ack or a
  // reset for a peer we hold nothing about is stale.
  const Slot s = frame->entries.empty() ? peers_.find(from)
                                        : peers_.insert(from);
  if (s == PeerTable::kNone) return;
  const wire::FrameHeader& h = frame->header;
  if (h.flags & wire::kFlagReset) {
    handle_reset(s, h.ack_incarnation);
    return;
  }
  if (h.flags & wire::kFlagHasAck) {
    handle_ack(s, h.ack_incarnation, h.ack_seq, h.sack);
    if (crashed_) return;  // the reset handler may have crashed us
  }
  if (!frame->entries.empty()) handle_data(s, *frame);
}

void CoRfifoTransport::handle_ack(Slot s, std::uint64_t incarnation,
                                  std::uint64_t ack_seq,
                                  const util::IntervalSet& sack) {
  Outgoing& out = peers_.at(s).out;
  if (incarnation != out.incarnation) return;  // stale incarnation
  if (ack_seq >= out.next_seq) {
    // Cumulative ack for a sequence number never sent: impossible for honest
    // cursors on both ends — one side's state is corrupted. Re-home the
    // stream under a fresh incarnation instead of trimming into garbage
    // (DESIGN.md §12).
    reset_stream(s, /*detected_corruption=*/true);
    return;
  }
  if (ack_seq < out.acked) return;  // stale/reordered: old selective info too
  if (ack_seq == out.acked) {
    // No cumulative progress, but the SACK may carry fresh reorder-buffer
    // info (the receiver is still stuck on the same gap while buffering
    // more). Merge runs — never trust one beyond our own send cursor.
    for (const auto& [lo, hi] : sack.runs()) {
      if (lo > ack_seq && hi < out.next_seq) out.peer_sacked.insert_run(lo, hi);
    }
    return;
  }
  out.acked = ack_seq;
  while (!out.unacked.empty() && out.unacked.front().seq <= ack_seq) {
    out.unacked.pop_front();
  }
  // The SACK block is the receiver's complete current reorder state above
  // the new cumulative ack: replace, then drop anything now covered.
  out.peer_sacked.clear();
  for (const auto& [lo, hi] : sack.runs()) {
    if (lo > ack_seq && hi < out.next_seq) out.peer_sacked.insert_run(lo, hi);
  }
  // Ack progress: the connection is alive again — restart backoff and the
  // timer from a clean interval.
  out.backoff = 1;
  out.retransmit_timer.cancel();
  arm_retransmit(s);
  // Freed credits may unblock window-stalled entries.
  if (!out.pending.empty()) flush(s);
}

void CoRfifoTransport::handle_reset(Slot s, std::uint64_t incarnation) {
  if (incarnation != peers_.at(s).out.incarnation) return;  // stale
  // The peer lost this stream's prefix (it crashed and recovered without
  // stable storage, or detected corrupted cursors). Re-home under a fresh
  // incarnation — the acked prefix belongs to the peer's previous life and
  // is gone by design (Section 8).
  reset_stream(s, /*detected_corruption=*/false);
}

void CoRfifoTransport::reset_stream(Slot s, bool detected_corruption) {
  const net::NodeId to = peers_.key(s);
  if (detected_corruption) {
    ++stats_.corruption_resets;
    if (reset_handler_) reset_handler_(to);
    if (crashed_) return;
  }
  // Resolved after the upcall: the handler may have grown the table.
  Outgoing& out = peers_.at(s).out;
  // Carry the unacked suffix over as the new stream's first messages. The
  // peer's selective-ack state belongs to the dead incarnation.
  out.acked = 0;
  out.peer_sacked.clear();
  out.retransmit_timer.cancel();
  out.backoff = 1;
  if (out.unacked.empty()) {
    out.incarnation = 0;  // next flush opens a new stream lazily
    out.next_seq = 1;
    if (!out.pending.empty()) flush(s);
    return;
  }
  out.incarnation = fresh_incarnation();
  for (std::size_t i = 0; i < out.unacked.size(); ++i) {
    out.unacked[i].seq = i + 1;
  }
  out.next_seq = out.unacked.size() + 1;
  const std::size_t total = out.unacked.size();
  // Re-homing the suffix re-sends entries already transmitted once:
  // recovery cost, counted like any other retransmission. The peer's SACK
  // state is clear, so frames break only at groups and kMaxBatch.
  for (std::size_t i = 0; i < total;) {
    i += resend(s, i, total);
  }
  if (trace_ != nullptr && trace_->lifecycle()) {
    trace_->emit(sim_.now(),
                 spec::XportRetransmit{self_.value, to.value, total});
  }
  arm_retransmit(s);
  if (!out.pending.empty()) flush(s);
}

bool CoRfifoTransport::audit_outgoing(Slot s) {
  const Outgoing& out = peers_.at(s).out;
  if (out.incarnation == 0) return false;
  const bool consistent =
      out.acked < out.next_seq &&
      (out.unacked.empty()
           ? out.next_seq == out.acked + 1
           : out.unacked.front().seq == out.acked + 1 &&
                 out.unacked.back().seq == out.next_seq - 1);
  if (consistent) return false;
  reset_stream(s, /*detected_corruption=*/true);
  return true;
}

void CoRfifoTransport::handle_data(Slot s, const Frame& frame) {
  // Every upcall below (the reset handler, the batch hooks, deliver_up) may
  // send to a new peer and grow the table, which moves its entries. So no
  // reference into it is held: `in()` re-reads this peer's entry at each use.
  const auto in = [this, s]() -> Incoming& { return peers_.at(s).in; };
  const net::NodeId from = peers_.key(s);
  const wire::FrameHeader& h = frame.header;
  if (h.incarnation < in().incarnation) return;  // stale stream
  if (h.incarnation > in().incarnation) {
    if (h.first_seq > 1) {
      // Mid-stream continuation of an incarnation we have no state for: we
      // crashed and lost the prefix, and the sender can no longer retransmit
      // it (it was acked by our previous life). Ask for a fresh stream.
      send_reset_request(from, h.incarnation);
      return;
    }
    // Fresh connection incarnation from the peer: restart the stream.
    Incoming& fresh = in();
    fresh.incarnation = h.incarnation;
    fresh.next_expected = 1;
    fresh.out_of_order.clear();
    fresh.received.clear();
  } else if (h.first_seq > in().next_expected) {
    // Same incarnation, yet the sender's unacked window starts beyond our
    // cumulative ack. Impossible for honest cursors: first_seq is the
    // sender's acked+1, and we only ever acked what we delivered — so one
    // side's stream state is corrupted (e.g. a desynced ack cursor). Ask for
    // a fresh incarnation and notify the upper layer: entries the corrupted
    // cursor skipped are lost to this stream, and only a view change can
    // re-align endpoint delivery indexes (DESIGN.md §12).
    ++stats_.corruption_resets;
    send_reset_request(from, h.incarnation);
    if (reset_handler_) reset_handler_(from);
    return;
  }

  // Classify-and-deliver in one pass, bracketed by the batch hooks so
  // endpoints can absorb a whole frame before pumping once. The common case
  // — fully in-order traffic with an empty reorder buffer — delivers
  // straight from the frame and never touches the out_of_order map (no node
  // allocation per message); only genuinely reordered entries are buffered.
  if (deliver_begin_) deliver_begin_();
  for (std::size_t i = 0; i < frame.entries.size() && !crashed_; ++i) {
    const std::uint64_t seq = h.base_seq + i;
    if (seq < in().next_expected) {
      ++stats_.duplicates_dropped;
    } else if (seq >= in().next_expected + kRecvWindow) {
      // Beyond the receive window: drop instead of buffering, so a
      // reordering adversary (or a sender predating the credit window)
      // cannot grow this map without bound. The sender retransmits once
      // the cumulative ack catches up.
      ++stats_.ooo_dropped;
    } else if (seq == in().next_expected && in().out_of_order.empty()) {
      ++stats_.messages_delivered;
      ++in().next_expected;
      deliver_up(from, h.group, frame.entries[i].payload.any());
      // delivery handler may have crashed us: loop condition re-checks
    } else if (in().received.insert(seq)) {
      // Genuinely new reordered entry: buffer it. `received` is the
      // run-length twin of the buffer's key set — it classifies duplicates
      // in O(log runs) and becomes the SACK block of the next ack.
      in().out_of_order.emplace(seq, frame.entries[i]);
      track_peak(stats_.peak_out_of_order, in().out_of_order.size());
    }
  }
  // Drain entries this frame made contiguous with earlier reordered ones.
  // `received` knows the whole contiguous run in O(log runs); the map walk
  // hands each buffered payload up in order.
  if (!crashed_ && in().received.contains(in().next_expected)) {
    const std::uint64_t run_end =
        in().received.next_missing(in().next_expected);
    while (!crashed_ && in().next_expected < run_end) {
      auto& buffered = in().out_of_order;
      auto next = buffered.find(in().next_expected);
      VSGC_REQUIRE(next != buffered.end(),
                   "reorder buffer diverged from its received-run twin");
      ++stats_.messages_delivered;
      ++in().next_expected;
      FrameEntry ready = std::move(next->second);
      buffered.erase(next);
      deliver_up(from, ready.group, ready.payload.any());
    }
    if (!crashed_) in().received.erase_below(in().next_expected);
  }
  if (deliver_end_) deliver_end_();
  // The end hook (endpoint pump → app) may also have crashed us, or crashed
  // and recovered us: crash() clears the table, so check the slot still
  // names this peer before acking.
  if (crashed_ || s >= peers_.size() || peers_.key(s) != from) return;
  in().ack_due = true;
  schedule_ack(s);
}

void CoRfifoTransport::schedule_ack(Slot s) {
  Incoming& in = peers_.at(s).in;
  if (in.ack_timer.pending()) return;
  // Zero delay: a reply flushed in this sim instant piggybacks the ack first.
  in.ack_timer = sim_.schedule(0, [this, s]() {
    if (crashed_) return;
    if (!peers_.at(s).in.ack_due) return;  // a piggyback beat us to it
    send_standalone_ack(s);
  });
}

void CoRfifoTransport::send_standalone_ack(Slot s) {
  Incoming& in = peers_.at(s).in;
  Frame& ack = acquire_frame();
  ack.header.flags = wire::kFlagHasAck;
  ack.header.ack_incarnation = in.incarnation;
  ack.header.ack_seq = in.next_expected - 1;
  if (!in.received.empty() && in.received.num_runs() <= wire::kMaxSackRuns) {
    ack.header.sack = in.received;
    stats_.sack_runs_sent += in.received.num_runs();
  }
  in.ack_due = false;
  ++stats_.acks_sent;
  // A standalone ack is a header-only frame: kFrameHeaderBytes on the wire
  // (honest accounting — it carries no entry, so no per-entry cost).
  transmit_frame(peers_.key(s));
}

bool CoRfifoTransport::corrupt_outgoing_seq(net::NodeId peer,
                                            std::uint64_t delta) {
  if (crashed_ || delta == 0) return false;
  const Slot s = peers_.find(peer);
  if (s == PeerTable::kNone || peers_.at(s).out.incarnation == 0) return false;
  peers_.at(s).out.next_seq += delta;  // audit_outgoing() will catch the gap
  return true;
}

bool CoRfifoTransport::corrupt_ack_cursor(net::NodeId peer,
                                          std::uint64_t delta) {
  if (crashed_ || delta == 0) return false;
  const Slot s = peers_.find(peer);
  if (s == PeerTable::kNone || peers_.at(s).out.incarnation == 0) return false;
  Outgoing& out = peers_.at(s).out;
  // Advance the cursor as if acks arrived for entries the peer never saw,
  // trimming unacked to match — internally consistent, so the sender-side
  // audit stays blind; only the receiver's first_seq check can expose it.
  out.acked = out.acked + delta >= out.next_seq ? out.next_seq - 1
                                                : out.acked + delta;
  while (!out.unacked.empty() && out.unacked.front().seq <= out.acked) {
    out.unacked.pop_front();
  }
  return true;
}

bool CoRfifoTransport::corrupt_drop_reliable(net::NodeId peer) {
  if (crashed_ || peer == self_) return false;
  if (!reliable_set_.contains(peer)) return false;
  // Desync the set only — stream state stays, mimicking a flipped membership
  // bit. Retransmission toward `peer` silently stops until the next
  // set_reliable() re-asserts the true set and re-arms the timer.
  reliable_set_.erase(peer);
  ++reliable_generation_;
  return true;
}

bool CoRfifoTransport::corrupt_backoff(net::NodeId peer, std::uint32_t value) {
  if (crashed_) return false;
  const Slot s = peers_.find(peer);
  if (s == PeerTable::kNone || peers_.at(s).out.incarnation == 0) return false;
  peers_.at(s).out.backoff = value;  // arm_retransmit() clamps it
  return true;
}

std::size_t CoRfifoTransport::resident_bytes() const {
  // Approximate heap held by per-peer stream state: the peer table's and the
  // send queues' capacity, reorder-buffer and run-set nodes, the reliable
  // set. Payload bytes are left out (refcounted, owned by the application
  // layer), and so are the frame cells (DESIGN.md §11.1) and every fixed
  // member: the value moves with the peers in use and nothing else.
  // bench_scale fits this against N.
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  std::size_t total = peers_.capacity_bytes();
  for (const auto& [q, peer] : peers_) {
    total += (peer.out.pending.capacity() + peer.out.unacked.capacity()) *
             sizeof(FrameEntry);
    total += peer.out.peer_sacked.resident_bytes();
    total += peer.in.out_of_order.size() *
             (sizeof(std::pair<const std::uint64_t, FrameEntry>) +
              kNodeOverhead);
    total += peer.in.received.resident_bytes();
  }
  total += reliable_set_.size() * (sizeof(net::NodeId) + kNodeOverhead);
  return total;
}

void CoRfifoTransport::crash() {
  crashed_ = true;
  for (auto& [q, peer] : peers_) {
    peer.out.flush_timer.cancel();
    peer.out.retransmit_timer.cancel();
    peer.in.ack_timer.cancel();
  }
  peers_.clear();
  reliable_set_ = {self_};
  ++reliable_generation_;
}

void CoRfifoTransport::recover() {
  VSGC_REQUIRE(crashed_,
               "recover() without crash at " << net::to_string(self_));
  crashed_ = false;
}

template void CoRfifoTransport::send_sorted(const std::set<net::NodeId>&,
                                            net::Payload, std::size_t,
                                            std::uint32_t);
template void CoRfifoTransport::send_sorted(
    const std::span<const net::NodeId>&, net::Payload, std::size_t,
    std::uint32_t);
template void CoRfifoTransport::assign_reliable(const std::set<net::NodeId>&);
template void CoRfifoTransport::assign_reliable(
    const std::span<const net::NodeId>&);

}  // namespace vsgc::transport
