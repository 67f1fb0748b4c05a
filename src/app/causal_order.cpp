#include "app/causal_order.hpp"

#include "util/assert.hpp"
#include "util/serialization.hpp"

namespace vsgc::app {

namespace {

std::string encode_stamped(const std::map<ProcessId, std::uint64_t>& clock,
                           const std::string& payload) {
  Encoder enc;
  enc.put_u32(static_cast<std::uint32_t>(clock.size()));
  for (const auto& [p, c] : clock) {
    enc.put_process(p);
    enc.put_u64(c);
  }
  enc.put_string(payload);
  return std::string(enc.bytes().begin(), enc.bytes().end());
}

std::pair<std::map<ProcessId, std::uint64_t>, std::string> decode_stamped(
    const std::string& wire) {
  std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
  Decoder dec(bytes);
  std::map<ProcessId, std::uint64_t> clock;
  const std::uint32_t n = dec.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    ProcessId p = dec.get_process();
    clock[p] = dec.get_u64();
  }
  return {std::move(clock), dec.get_string()};
}

}  // namespace

CausalOrder::CausalOrder(BlockingClient& client, ProcessId self)
    : client_(client), self_(self) {
  client_.on_deliver([this](ProcessId from, const gcs::AppMsg& msg) {
    handle_deliver(from, msg);
  });
  client_.on_view([this](const View& v, const ProcessSet& t) {
    handle_view(v, t);
  });
}

std::size_t CausalOrder::buffered() const {
  std::size_t total = 0;
  for (const auto& [p, q] : pending_) total += q.size();
  return total;
}

void CausalOrder::send(const std::string& payload) {
  if (client_.blocked()) {
    // A clock stamped now would reference the old view; defer raw payloads
    // and stamp them fresh once the new view (with reset clocks) arrives.
    outbox_.push_back(payload);
    return;
  }
  // Stamp so that receivers must have seen everything we delivered, plus all
  // our own previous messages (own_sent_ may lead delivered_[self] when we
  // send again before our own message loops back).
  std::map<ProcessId, std::uint64_t> clock = delivered_;
  clock[self_] = ++own_sent_;
  client_.send(encode_stamped(clock, payload));
}

bool CausalOrder::deliverable(ProcessId from, const Stamped& m) const {
  for (const auto& [p, c] : m.clock) {
    const auto it = delivered_.find(p);
    const std::uint64_t have = it == delivered_.end() ? 0 : it->second;
    if (p == from) {
      if (c != have + 1) return false;  // next-in-FIFO from the sender
    } else if (c > have) {
      return false;  // missing a causal predecessor from p
    }
  }
  return true;
}

void CausalOrder::drain() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [from, queue] : pending_) {
      while (!queue.empty() && deliverable(from, queue.front())) {
        Stamped m = std::move(queue.front());
        queue.pop_front();
        delivered_[from] += 1;
        if (deliver_) deliver_(from, m.payload);
        progress = true;
      }
    }
  }
}

void CausalOrder::handle_deliver(ProcessId from, const gcs::AppMsg& msg) {
  auto [clock, payload] = decode_stamped(msg.payload());
  pending_[from].push_back(Stamped{std::move(clock), std::move(payload)});
  drain();
}

void CausalOrder::handle_view(const View& v,
                              const ProcessSet& transitional) {
  // Virtual Synchrony: transitional members agreed on the delivered set, so
  // any residue is flushed in (sender) order and the clocks restart.
  drain();
  for (auto& [from, queue] : pending_) {
    while (!queue.empty()) {
      Stamped m = std::move(queue.front());
      queue.pop_front();
      if (deliver_) deliver_(from, m.payload);
    }
  }
  pending_.clear();
  delivered_.clear();
  own_sent_ = 0;
  if (view_) view_(v, transitional);
  std::deque<std::string> outbox;
  outbox.swap(outbox_);
  for (std::string& payload : outbox) send(payload);
}

}  // namespace vsgc::app
