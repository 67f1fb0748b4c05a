// BlockingClient: a ready-made application adapter satisfying CLIENT:SPEC
// (paper Figure 12).
//
// It answers every block() request with block_ok() and queues application
// sends issued while blocked, flushing them when the next view arrives — so
// applications built on it can never violate the blocking contract the
// service's Self Delivery liveness depends on.
//
// The adapter is generic over the end-point it drives: app::BlockingClient is
// the GCS end-point's (the paper's algorithm); app::OracleWorld instantiates
// it for the two-round baseline and the bare WV automaton too, which never
// blocks and so never reaches block().
#pragma once

#include <deque>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "gcs/client.hpp"
#include "gcs/gcs_endpoint.hpp"

namespace vsgc::app {

template <typename EndpointT>
class BasicBlockingClient : public gcs::Client {
 public:
  using DeliverFn = std::function<void(ProcessId from, const gcs::AppMsg&)>;
  using ViewFn = std::function<void(const View&, const ProcessSet&)>;

  explicit BasicBlockingClient(EndpointT& endpoint) : endpoint_(endpoint) {
    endpoint_.set_client(*this);
  }

  void on_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// The view callback gets T as the end-point's flat set. A callback that
  /// takes the plain `const std::set<ProcessId>&` gets a set this client
  /// keeps in step with T: each view erases and inserts only what changed,
  /// so a T that moves by one member costs one node.
  template <class F>
  void on_view(F fn) {
    if constexpr (std::is_invocable_v<F&, const View&, const ProcessSet&>) {
      view_ = std::move(fn);
    } else {
      view_ = [fn = std::move(fn), plain = std::set<ProcessId>()](
                  const View& v, const ProcessSet& t) mutable {
        keep_in_step(plain, t);
        fn(v, std::as_const(plain));
      };
    }
  }

  /// Pre-delivery hook, independent of on_deliver: runs first and may veto
  /// the application callback (return false to swallow). Fault harnesses use
  /// it to crash the process from inside the delivery callback without
  /// clobbering a handler the application installed.
  using InterceptFn = std::function<bool(ProcessId from, const gcs::AppMsg&)>;
  void set_delivery_interceptor(InterceptFn fn) { intercept_ = std::move(fn); }

  /// Send `payload` in the current view, or queue it if the service has
  /// blocked us (it will be sent in the next view). Returns true if it was
  /// sent immediately.
  bool send(std::string payload) {
    if (blocked_) {
      pending_.push_back(std::move(payload));
      return false;
    }
    endpoint_.send(std::move(payload));
    return true;
  }

  bool blocked() const { return blocked_; }
  std::size_t pending() const { return pending_.size(); }

  // gcs::Client
  void deliver(ProcessId from, const gcs::AppMsg& msg) override {
    if (intercept_ && !intercept_(from, msg)) return;
    if (deliver_) deliver_(from, msg);
  }

  void view(const View& v, const ProcessSet& transitional) override {
    blocked_ = false;
    if (view_) view_(v, transitional);
    // Flush the sends queued while blocked, in order, from the queue itself.
    // If a send blocks us again, the rest stay queued for the next view.
    while (!blocked_ && !pending_.empty()) {
      std::string payload = std::move(pending_.front());
      pending_.pop_front();
      endpoint_.send(std::move(payload));
    }
  }

  void block() override {
    blocked_ = true;
    if constexpr (requires(EndpointT& e) { e.block_ok(); }) endpoint_.block_ok();
  }

 private:
  /// Makes `plain` equal `t` (both ascend), touching only the difference.
  static void keep_in_step(std::set<ProcessId>& plain, const ProcessSet& t) {
    auto it = plain.begin();
    for (ProcessId p : t) {
      while (it != plain.end() && *it < p) it = plain.erase(it);
      if (it != plain.end() && *it == p) {
        ++it;
      } else {
        plain.insert(it, p);
      }
    }
    plain.erase(it, plain.end());
  }

  EndpointT& endpoint_;
  DeliverFn deliver_;
  ViewFn view_;
  InterceptFn intercept_;
  bool blocked_ = false;
  std::deque<std::string> pending_;
};

using BlockingClient = BasicBlockingClient<gcs::GcsEndpoint>;

}  // namespace vsgc::app
