// Span profiler for the traced run. Spans are opened from the benchmark's
// own code around calls into each layer's public functions; nothing inside
// src/ is instrumented. Spans nest (a membership notification pumps the
// endpoint, which delivers to the app, which the checkers observe), so the
// profiler keeps a stack and charges wall time and heap allocations to the
// innermost open span only: every layer's figure is its self time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Heap allocations made by this process so far (alloc_counter.cpp).
std::uint64_t allocations();

enum class Layer : int {
  kSimRun,       ///< World::run_for / Simulator::run_until (and the injector)
  kGcsPump,      ///< GcsEndpoint::end_delivery_batch
  kGcsRecv,      ///< GcsEndpoint::on_co_rfifo_deliver
  kGcsSend,      ///< BlockingClient::send -> GcsEndpoint::send
  kMbrClient,    ///< MembershipClient::handle
  kSpecMbrshp,   ///< one TraceSink::on_event per checker
  kSpecWvRfifo,
  kSpecVsRfifo,
  kSpecTransSet,
  kSpecSelf,
  kSpecClient,
  kSpecFinalize,  ///< AllCheckers::finalize
  kSpecLiveness,  ///< LivenessChecker::check
  kAppDeliver,    ///< the benchmark's own delivery callbacks
  kCount,
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

constexpr std::size_t index(Layer l) { return static_cast<std::size_t>(l); }

struct LayerTotals {
  std::array<std::int64_t, kLayers> self_ns{};   ///< exclusive wall time
  std::array<std::uint64_t, kLayers> allocs{};   ///< exclusive allocations
  std::array<std::uint64_t, kLayers> calls{};    ///< spans opened
  /// Inclusive wall time of outermost spans, by the outermost span's layer.
  std::array<std::int64_t, kLayers> root_ns{};
  /// Self time charged while an outermost span of that layer was open. Equal
  /// to root_ns whenever spans nest properly: the self times of a root and
  /// of every span below it add up to the root's inclusive time.
  std::array<std::int64_t, kLayers> under_root_ns{};

  LayerTotals& operator+=(const LayerTotals& o) {
    for (std::size_t i = 0; i < kLayers; ++i) {
      self_ns[i] += o.self_ns[i];
      allocs[i] += o.allocs[i];
      calls[i] += o.calls[i];
      root_ns[i] += o.root_ns[i];
      under_root_ns[i] += o.under_root_ns[i];
    }
    return *this;
  }
};

class Profiler {
 public:
  Profiler() { stack_.reserve(64); }  // no allocation inside push()

  void push(Layer layer) {
    const std::int64_t now = now_ns();
    const std::uint64_t a = allocations();
    if (stack_.empty()) {
      root_start_ = now;
    } else {
      charge(now, a);
    }
    stack_.push_back(layer);
    ++totals_.calls[index(layer)];
    mark_ns_ = now;
    mark_allocs_ = a;
  }

  void pop() {
    const std::int64_t now = now_ns();
    const std::uint64_t a = allocations();
    charge(now, a);
    const Layer root = stack_.front();
    stack_.pop_back();
    if (stack_.empty()) totals_.root_ns[index(root)] += now - root_start_;
    mark_ns_ = now;
    mark_allocs_ = a;
  }

  /// Forget everything recorded so far (only between spans).
  void reset() { totals_ = {}; }

  const LayerTotals& totals() const { return totals_; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  /// Charge the interval since the last push/pop to the innermost span.
  void charge(std::int64_t now, std::uint64_t a) {
    const std::int64_t ns = now - mark_ns_;
    totals_.self_ns[index(stack_.back())] += ns;
    totals_.under_root_ns[index(stack_.front())] += ns;
    totals_.allocs[index(stack_.back())] += a - mark_allocs_;
  }

  LayerTotals totals_;
  std::vector<Layer> stack_;
  std::int64_t root_start_ = 0;
  std::int64_t mark_ns_ = 0;
  std::uint64_t mark_allocs_ = 0;
};

/// RAII span; a null profiler (the untraced run) makes it free.
class Span {
 public:
  Span(Profiler* prof, Layer layer) : prof_(prof) {
    if (prof_ != nullptr) prof_->push(layer);
  }
  ~Span() {
    if (prof_ != nullptr) prof_->pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Profiler* prof_;
};

}  // namespace perfbench
