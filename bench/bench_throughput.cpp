// E2 — Steady-state within-view multicast throughput and delivery latency
// (Section 4.1.1's service, full stack: GCS over CO_RFIFO over the datagram
// network, real membership servers).
//
// Expect: latency ~ one network hop regardless of group size (parallel
// multicast); aggregate deliveries scale with group size; per-message wire
// cost grows linearly in fan-out. Wall-clock cost of the data plane is
// perfbench's job (`python3 perfbench/run.py`, workloads steady and fanin).
#include "app/world.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

struct Result {
  double msgs_per_sec = 0;
  double avg_latency_ms = 0;
  double bytes_per_msg = 0;
  double overhead_bytes_per_msg = 0;  ///< honest header cost: frame + entry
  // Per-phase p95s from the causal span layer (DESIGN.md §10); log2-bucket
  // resolution — wire is the transport leg, gate the delivery-condition wait.
  std::uint64_t wire_p95_us = 0;
  std::uint64_t gate_p95_us = 0;
  std::uint64_t e2e_p95_us = 0;
};

Result run_case(int n, int payload_bytes, int messages,
                obs::BenchArtifact& art, obs::Registry& reg) {
  app::WorldConfig cfg;
  cfg.num_clients = n;
  cfg.attach_checkers = false;   // measuring, not verifying
  cfg.record_trace = true;       // span metrics come from the recorded trace
  cfg.lifecycle_spans = true;    // ... with per-message lifecycle events
  app::World w(cfg);

  std::uint64_t delivered = 0;
  std::map<std::uint64_t, sim::Time> sent_at;
  double latency_sum = 0;
  std::uint64_t latency_n = 0;
  for (int i = 0; i < n; ++i) {
    w.client(i).on_deliver(
        [&](ProcessId, const gcs::AppMsg& m) {
          ++delivered;
          auto it = sent_at.find(m.uid);
          if (it != sent_at.end()) {
            latency_sum += ms(w.sim().now() - it->second);
            ++latency_n;
          }
        });
  }
  // Post-mortem accounting only: counters are read after the run.
  const Tally<app::World> tally{art, reg, w};

  w.start();
  if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
    return {};
  }

  const transport::CoRfifoTransport::Stats before =
      w.process(0).transport().stats();
  const sim::Time start = w.sim().now();
  const std::string payload(static_cast<std::size_t>(payload_bytes), 'x');
  // Sender p1 streams `messages` messages, paced 100us apart.
  for (int k = 0; k < messages; ++k) {
    w.sim().schedule_at(start + k * 100, [&w, &sent_at, payload]() {
      const gcs::AppMsg m = w.process(0).endpoint().send(payload);
      sent_at[m.uid] = w.sim().now();
    });
  }
  w.run_for(20 * sim::kSecond);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(messages) * static_cast<std::uint64_t>(n);
  if (delivered < expected) return {};

  // Time until the last delivery.
  const double span_s =
      static_cast<double>(latency_n ? (messages - 1) * 100 : 1) / sim::kSecond +
      latency_sum / latency_n / 1000.0;
  const transport::CoRfifoTransport::Stats after =
      w.process(0).transport().stats();
  const std::uint64_t frames = after.frames_sent - before.frames_sent;
  const std::uint64_t entries = after.entries_sent - before.entries_sent;
  // Honest header overhead per application message: every frame pays a frame
  // header, every entry an entry header; standalone acks ride in the frame
  // count with zero entries, so their cost lands here too.
  const double overhead =
      entries == 0 ? 0.0
                   : static_cast<double>(
                         frames * transport::wire::kFrameHeaderBytes +
                         entries * transport::wire::kFrameEntryBytes) /
                         static_cast<double>(entries);
  // One analysis of the recorded trace feeds this row's p95 columns (a
  // per-case registry) and the artifact's trace metrics (the shared one).
  const obs::TraceAnalysis analysis = obs::analyze(w.trace().recorded());
  obs::Registry case_reg;
  obs::record_trace_metrics(analysis, case_reg);
  obs::record_trace_metrics(analysis, reg);
  return {static_cast<double>(messages) / span_s,
          latency_sum / static_cast<double>(latency_n),
          static_cast<double>(after.bytes_sent - before.bytes_sent) / messages,
          overhead,
          case_reg.histogram("span.msg.wire_us").quantile(0.95),
          case_reg.histogram("span.msg.gate_us").quantile(0.95),
          case_reg.histogram("span.msg.e2e_us").quantile(0.95)};
}

}  // namespace

int main() {
  std::cout << "E2: within-view reliable FIFO multicast, full stack\n";
  std::cout << "(1 sender streaming 500 messages at 10k msg/s offered load; "
               "1 ms link latency)\n";

  obs::BenchArtifact art("throughput");
  art.config("messages") = 500;
  art.config("offered_load_msgs_per_s") = 10000;
  art.config("link_latency_ms") = 1.0;
  obs::Registry reg;

  Table t({"group size", "payload (B)", "msgs/s", "avg delivery latency (ms)",
           "sender bytes/msg", "hdr bytes/msg", "wire p95 (us)",
           "e2e p95 (us)"});
  for (int n : {2, 4, 8, 12}) {
    for (int payload : {32, 256, 1024}) {
      const Result r = run_case(n, payload, 500, art, reg);
      t.row(n, payload, r.msgs_per_sec, r.avg_latency_ms, r.bytes_per_msg,
            r.overhead_bytes_per_msg, r.wire_p95_us, r.e2e_p95_us);
      obs::JsonValue& row = art.add_result();
      row["group_size"] = n;
      row["payload_bytes"] = payload;
      row["msgs_per_sec"] = r.msgs_per_sec;
      row["avg_latency_ms"] = r.avg_latency_ms;
      row["sender_bytes_per_msg"] = r.bytes_per_msg;
      row["overhead_bytes_per_msg"] = r.overhead_bytes_per_msg;
      row["wire_p95_us"] = static_cast<std::int64_t>(r.wire_p95_us);
      row["gate_p95_us"] = static_cast<std::int64_t>(r.gate_p95_us);
      row["e2e_p95_us"] = static_cast<std::int64_t>(r.e2e_p95_us);
    }
  }
  t.print("throughput / latency vs group size and payload");

  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: delivery latency ~ one hop (~1 ms) flat in "
               "group size; sender bytes/msg grow linearly with fan-out.\n";
  return 0;
}
