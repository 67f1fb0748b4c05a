// CO_RFIFO wire frame format (DESIGN.md §11).
//
// One Frame is the unit the transport puts on the datagram network: a fixed
// header plus zero or more consecutively-sequenced payload entries. A frame
// with entries is a data frame; a frame without entries is pure control
// (standalone cumulative ack, or a stream-reset request). Every data frame
// may additionally piggyback the sender's cumulative ack for the *reverse*
// stream, which is what lets steady bidirectional traffic run with almost no
// standalone ack packets.
//
// The flat codec below is the byte-level contract: benches account realistic
// sizes with it and the adversarial decode tests drive truncated and
// oversized-count frames through it. Inside the simulator frames travel as
// structured objects (one refcounted payload handle per entry — never a
// per-entry std::any wrap) in cells the sending transport recycles
// (DESIGN.md §11.1), so the codec is exercised by tests, not per packet on
// the hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "util/interval_set.hpp"
#include "util/serialization.hpp"

namespace vsgc::transport::wire {

/// Modeled per-frame cost for byte accounting: flags, incarnation, sequence
/// bases, piggybacked ack, entry count, addressing — amortized over however
/// many entries the frame carries.
constexpr std::size_t kFrameHeaderBytes = 16;

/// Modeled per-entry framing cost (length prefix + sequencing share). A
/// single-entry frame therefore costs kFrameHeaderBytes + kFrameEntryBytes =
/// 24 bytes of overhead (kPacketHeaderBytes in co_rfifo.hpp).
constexpr std::size_t kFrameEntryBytes = 8;

/// Hard cap on entries per decoded frame: a forged count above this fails
/// decoding instead of driving a giant allocation.
constexpr std::size_t kMaxFrameEntries = 4096;

/// Modeled per-frame cost of the group tag when a frame targets a non-zero
/// multiplexed channel (kFlagHasGroup). Group-0 traffic pays nothing, so
/// single-group byte accounting is unchanged from PR 7.
constexpr std::size_t kGroupTagBytes = 4;

/// Modeled cost of one selective-ack run (lo, hi) when a frame carries a
/// SACK block (kFlagHasSack). FIFO steady state carries zero runs.
constexpr std::size_t kSackRunBytes = 16;

/// Cap on SACK runs per frame: beyond this the receiver falls back to the
/// cumulative ack alone (the retransmit path still converges, just with more
/// duplicate deliveries suppressed receiver-side).
constexpr std::uint32_t kMaxSackRuns = 64;

constexpr std::uint8_t kFlagHasAck = 0x1;    ///< ack_* fields are meaningful
constexpr std::uint8_t kFlagReset = 0x2;     ///< "restart this stream" request
constexpr std::uint8_t kFlagHasGroup = 0x4;  ///< group tag present (muxing)
constexpr std::uint8_t kFlagHasSack = 0x8;   ///< selective-ack runs present

/// Fixed frame header. `base_seq` numbers the first entry; entry i carries
/// sequence base_seq + i (entries in one frame are always consecutive).
/// `group` multiplexes many logical channels over one sequenced session
/// (DESIGN.md §13): all groups share one seq space, one ack stream, and one
/// retransmit budget per peer pair. `sack` lists received-but-unacked runs
/// above ack_seq so the sender can skip retransmitting across loss gaps.
struct FrameHeader {
  std::uint8_t flags = 0;
  std::uint64_t incarnation = 0;      ///< sender connection incarnation
  std::uint64_t first_seq = 1;        ///< lowest seq still retransmittable
  std::uint64_t base_seq = 0;         ///< seq of entry 0 (data frames)
  std::uint64_t ack_incarnation = 0;  ///< reverse-stream incarnation acked
  std::uint64_t ack_seq = 0;          ///< cumulative ack for reverse stream
  std::uint32_t count = 0;            ///< number of payload entries
  std::uint32_t group = 0;            ///< multiplexed channel tag
  util::IntervalSet sack{};           ///< received runs above ack_seq

  void encode(Encoder& enc) const {
    enc.reserve(41 + 16 * sack.num_runs());
    std::uint8_t f = flags;
    if (group != 0) f |= kFlagHasGroup;
    if (!sack.empty()) f |= kFlagHasSack;
    enc.put_u8(f);
    enc.put_u64(incarnation);
    enc.put_u64(first_seq);
    enc.put_u64(base_seq);
    enc.put_u64(ack_incarnation);
    enc.put_u64(ack_seq);
    enc.put_u32(count);
    if (group != 0) enc.put_u32(group);
    if (!sack.empty()) sack.encode(enc);
  }

  static FrameHeader decode(Decoder& dec) {
    FrameHeader h;
    h.flags = dec.get_u8();
    h.incarnation = dec.get_u64();
    h.first_seq = dec.get_u64();
    h.base_seq = dec.get_u64();
    h.ack_incarnation = dec.get_u64();
    h.ack_seq = dec.get_u64();
    h.count = dec.get_u32();
    if (h.flags & kFlagHasGroup) {
      h.group = dec.get_u32();
      if (h.group == 0) throw DecodeError("group flag with zero group tag");
    }
    if (h.flags & kFlagHasSack) {
      h.sack = util::IntervalSet::decode(dec, kMaxSackRuns);
      if (h.sack.empty()) throw DecodeError("sack flag with empty sack");
    }
    h.flags &= static_cast<std::uint8_t>(~(kFlagHasGroup | kFlagHasSack));
    return h;
  }

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

/// A fully serializable frame: header plus raw payload bytes per entry.
struct EncodedFrame {
  FrameHeader header{};
  std::vector<std::vector<std::uint8_t>> payloads{};

  void encode(Encoder& enc) const {
    FrameHeader h = header;
    h.count = static_cast<std::uint32_t>(payloads.size());
    h.encode(enc);
    for (const auto& p : payloads) enc.put_bytes(p);
  }

  /// Decodes a frame, failing cleanly (DecodeError via Decoder::need) on any
  /// truncation and on entry counts beyond kMaxFrameEntries — a forged count
  /// can never drive an out-of-bounds read or an unbounded reserve.
  static EncodedFrame decode(Decoder& dec) {
    EncodedFrame f;
    f.header = FrameHeader::decode(dec);
    if (f.header.count > kMaxFrameEntries) {
      throw DecodeError("frame entry count exceeds kMaxFrameEntries");
    }
    // Each entry needs at least its 4-byte length prefix, so `remaining / 4`
    // bounds any honest count: reserve never trusts the header alone.
    const std::size_t plausible = dec.remaining() / 4;
    f.payloads.reserve(
        f.header.count < plausible ? f.header.count : plausible);
    for (std::uint32_t i = 0; i < f.header.count; ++i) {
      f.payloads.push_back(dec.get_bytes());
    }
    return f;
  }

  friend bool operator==(const EncodedFrame&, const EncodedFrame&) = default;
};

}  // namespace vsgc::transport::wire
