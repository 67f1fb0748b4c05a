// Timeout-based failure detector used by the membership servers.
//
// The paper assumes the membership service employs a failure detector whose
// output drives reconfiguration ([27]); correctness of the GCS never depends
// on FD accuracy, only liveness depends on its eventual stabilization.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace vsgc::membership {

class FailureDetector {
 public:
  /// `on_change` fires whenever any monitored node's liveness flips. A node
  /// silent for longer than `timeout` is suspected by the next sweep; sweeps
  /// run every timeout / 5.
  FailureDetector(sim::Simulator& sim, sim::Time timeout,
                  std::function<void()> on_change)
      : sim_(sim), timeout_(timeout), on_change_(std::move(on_change)) {}

  ~FailureDetector() { stop(); }

  void monitor(net::NodeId n, bool initially_alive) {
    targets_[n] = Record{sim_.now(), initially_alive};
  }

  void forget(net::NodeId n) { targets_.erase(n); }

  /// Explicitly mark a node down (graceful leave) without waiting for the
  /// timeout; a later heard() resurrects it as usual.
  void suspect(net::NodeId n) {
    auto it = targets_.find(n);
    if (it == targets_.end() || !it->second.alive) return;
    it->second.alive = false;
    // Backdate last_heard so the node stays down until a genuinely new
    // message arrives (heard() refreshes the timestamp).
    it->second.last_heard = sim_.now() - timeout_;
    if (on_change_) on_change_();
  }

  /// Refresh on any message from n; resurrects a suspected node.
  void heard(net::NodeId n) {
    auto it = targets_.find(n);
    if (it == targets_.end()) return;
    it->second.last_heard = sim_.now();
    if (!it->second.alive) {
      it->second.alive = true;
      if (on_change_) on_change_();
    }
  }

  bool alive(net::NodeId n) const {
    auto it = targets_.find(n);
    return it != targets_.end() && it->second.alive;
  }

  std::set<net::NodeId> alive_set() const {
    std::set<net::NodeId> out;
    for (const auto& [n, rec] : targets_) {
      if (rec.alive) out.insert(n);
    }
    return out;
  }

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() {
    running_ = false;
    timer_.cancel();
  }

 private:
  struct Record {
    sim::Time last_heard = 0;
    bool alive = true;
  };

  void arm() {
    timer_ = sim_.schedule(timeout_ / 5, [this]() {
      if (!running_) return;
      bool changed = false;
      for (auto& [n, rec] : targets_) {
        if (rec.alive && sim_.now() - rec.last_heard > timeout_) {
          rec.alive = false;
          changed = true;
        }
      }
      if (changed && on_change_) on_change_();
      if (running_) arm();
    });
  }

  sim::Simulator& sim_;
  sim::Time timeout_;
  std::function<void()> on_change_;
  std::map<net::NodeId, Record> targets_;
  sim::TimerHandle timer_;
  bool running_ = false;
};

}  // namespace vsgc::membership
