// Shared benchmark utilities: table printing and trace-based instrumentation.
//
// The benches measure SIMULATED time and message/byte counts — the metrics
// the paper's claims are about (message rounds, notifications, overhead) —
// so results are exactly reproducible across machines.
#pragma once

#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "gcs/vs_rfifo_ts_endpoint.hpp"
#include "net/network.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_collector.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"

namespace vsgc::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Ts>
  void row(Ts&&... cells) {
    std::vector<std::string> r;
    (r.push_back(fmt(std::forward<Ts>(cells))), ...);
    rows_.push_back(std::move(r));
  }

  void print(const std::string& title) const {
    std::cout << "\n== " << title << " ==\n";
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) width[c] = std::max(width[c], r[c].size());
      }
    }
    print_row(headers_, width);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      sep += std::string(width[c] + 2, '-');
      if (c + 1 < headers_.size()) sep += "+";
    }
    std::cout << sep << "\n";
    for (const auto& r : rows_) print_row(r, width);
  }

 private:
  static std::string fmt(const std::string& s) { return s; }
  static std::string fmt(const char* s) { return s; }
  static std::string fmt(double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << v;
    return os.str();
  }
  template <typename T>
  static std::string fmt(T v) {
    return std::to_string(v);
  }

  void print_row(const std::vector<std::string>& r,
                 const std::vector<std::size_t>& width) const {
    for (std::size_t c = 0; c < r.size(); ++c) {
      std::cout << " " << std::setw(static_cast<int>(width[c])) << r[c] << " ";
      if (c + 1 < r.size()) std::cout << "|";
    }
    std::cout << "\n";
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline double ms(sim::Time t) {
  return static_cast<double>(t) / sim::kMillisecond;
}

/// Fold a network's packet/byte stats into a registry (counters aggregate
/// across every world one bench runs).
inline void record_network_stats(obs::Registry& reg, const net::Network& net) {
  const net::Network::Stats& s = net.stats();
  reg.counter("net.packets_sent").inc(s.packets_sent);
  reg.counter("net.packets_delivered").inc(s.packets_delivered);
  reg.counter("net.packets_dropped").inc(s.packets_dropped);
  reg.counter("net.bytes_sent").inc(s.bytes_sent);
  reg.gauge("net.max_packet_bytes")
      .max_of(static_cast<std::int64_t>(s.max_packet_bytes));
}

/// Fold one end-point's VS-layer stats into a registry, labeled by process —
/// this is where forwarding fan-out and sync cost reach the artifact (they
/// are internal actions, invisible on the trace bus).
inline void record_vs_stats(obs::Registry& reg, ProcessId p,
                            const gcs::VsRfifoTsEndpoint::VsStats& s) {
  const obs::Labels labels = obs::process_labels(p.value);
  reg.counter("gcs.sync_msgs_sent", labels).inc(s.sync_msgs_sent);
  reg.counter("gcs.sync_msgs_received", labels).inc(s.sync_msgs_received);
  reg.counter("gcs.sync_bytes_sent", labels).inc(s.sync_bytes_sent);
  reg.counter("gcs.aggregates_relayed", labels).inc(s.aggregates_relayed);
  reg.counter("gcs.forwards_sent", labels).inc(s.forwards_sent);
}

}  // namespace vsgc::bench
