#include "app/total_order.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/serialization.hpp"

namespace vsgc::app {

namespace {

constexpr char kDataTag = 'D';
constexpr char kOrderTag = 'O';

std::string encode_order(const std::vector<std::pair<ProcessId, std::uint64_t>>&
                             ids) {
  Encoder enc;
  enc.put_u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto& [p, uid] : ids) {
    enc.put_process(p);
    enc.put_u64(uid);
  }
  return std::string(1, kOrderTag) +
         std::string(enc.bytes().begin(), enc.bytes().end());
}

std::vector<std::pair<ProcessId, std::uint64_t>> decode_order(
    const std::string& payload) {
  std::vector<std::uint8_t> bytes(payload.begin() + 1, payload.end());
  Decoder dec(bytes);
  const std::uint32_t n = dec.get_u32();
  std::vector<std::pair<ProcessId, std::uint64_t>> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ProcessId p = dec.get_process();
    out.emplace_back(p, dec.get_u64());
  }
  return out;
}

}  // namespace

TotalOrder::TotalOrder(BlockingClient& client, ProcessId self)
    : client_(client), self_(self), sequencer_(self) {
  client_.on_deliver([this](ProcessId from, const gcs::AppMsg& msg) {
    handle_deliver(from, msg);
  });
  client_.on_view([this](const View& v, const ProcessSet& t) {
    handle_view(v, t);
  });
}

void TotalOrder::send(const std::string& payload) {
  client_.send(std::string(1, kDataTag) + payload);
}

void TotalOrder::handle_deliver(ProcessId from, const gcs::AppMsg& msg) {
  VSGC_REQUIRE(!msg.payload().empty(), "total order: empty wire payload");
  const MsgId id{from, msg.uid};
  if (msg.payload()[0] == kDataTag) {
    data_[id] = msg.payload().substr(1);
    if (!sequenced_.contains(id)) unsequenced_.push_back(id);
    if (self_ == sequencer_) {
      // Sequence everything unsequenced so far, in arrival order.
      std::vector<MsgId> batch(unsequenced_.begin(), unsequenced_.end());
      unsequenced_.clear();
      for (const MsgId& m : batch) sequenced_.insert(m);
      if (!batch.empty()) client_.send(encode_order(batch));
    }
    try_deliver();
    return;
  }
  if (msg.payload()[0] == kOrderTag) {
    for (const MsgId& m : decode_order(msg.payload())) {
      order_.push_back(m);
      sequenced_.insert(m);
      std::erase(unsequenced_, m);
    }
    try_deliver();
    return;
  }
  VSGC_REQUIRE(false, "total order: unknown payload tag");
}

void TotalOrder::try_deliver() {
  while (!order_.empty()) {
    auto it = data_.find(order_.front());
    if (it == data_.end()) return;  // data not here yet (FIFO will bring it)
    const ProcessId origin = order_.front().first;
    std::string payload = std::move(it->second);
    data_.erase(it);
    order_.pop_front();
    if (deliver_) deliver_(origin, payload);
  }
}

void TotalOrder::flush_residue() {
  // At a view boundary the agreed cut has delivered the same data and order
  // messages to every transitional member, so this deterministic flush
  // (sequence first, then leftover data by (sender, uid)) yields the same
  // total order everywhere.
  try_deliver();
  order_.clear();
  std::vector<std::pair<MsgId, std::string>> residue(data_.begin(),
                                                     data_.end());
  std::sort(residue.begin(), residue.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  data_.clear();
  for (auto& [id, payload] : residue) {
    if (deliver_) deliver_(id.first, payload);
  }
  unsequenced_.clear();
  sequenced_.clear();
}

void TotalOrder::handle_view(const View& v,
                             const ProcessSet& transitional) {
  flush_residue();
  sequencer_ = *v.members().begin();
  if (view_) view_(v, transitional);
}

}  // namespace vsgc::app
