// Minimal binary codec: little-endian byte-level Encoder/Decoder.
//
// The simulator passes messages as structured objects, but every wire type
// has a real byte encoding so that (a) benches can account realistic byte
// sizes and (b) the codec round-trip is itself a tested invariant. Message
// structs get theirs derived from a field list (util/wire_codec.hpp); the
// transport frame and the app-layer payloads call this layer directly.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace vsgc {

class Encoder {
 public:
  /// Pre-size the buffer when the encoded size is known (or estimable) up
  /// front, so a message encodes with at most one reallocation.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u32(std::uint32_t v) { put_le(v, 4); }

  void put_u64(std::uint64_t v) { put_le(v, 8); }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_string(const std::string& s) {
    reserve(4 + s.size());
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed raw byte blob (u32 length + bytes).
  void put_bytes(const std::vector<std::uint8_t>& b) {
    reserve(4 + b.size());
    put_u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void put_process(ProcessId p) { put_u32(p.value); }
  void put_start_change_id(StartChangeId c) { put_u64(c.value); }

  void put_view_id(ViewId v) {
    put_u64(v.epoch);
    put_u32(v.origin);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  /// Append `n` little-endian bytes of `v` in one bulk write (memcpy into a
  /// resized tail) instead of n push_backs.
  void put_le(std::uint64_t v, std::size_t n) {
    std::uint8_t le[8];
    for (std::size_t i = 0; i < n; ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, le, n);
  }

  std::vector<std::uint8_t> buf_;
};

class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t get_u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Length-prefixed raw byte blob; the length is bounds-checked via need()
  /// before any read, so a forged length fails cleanly.
  std::vector<std::uint8_t> get_bytes() {
    const std::uint32_t n = get_u32();
    need(n);
    std::vector<std::uint8_t> b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  ProcessId get_process() { return ProcessId{get_u32()}; }
  StartChangeId get_start_change_id() { return StartChangeId{get_u64()}; }

  ViewId get_view_id() {
    ViewId v;
    v.epoch = get_u64();
    v.origin = get_u32();
    return v;
  }

  bool done() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) {
    if (buf_.size() - pos_ < n) throw DecodeError("decoder underrun");
  }

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace vsgc
