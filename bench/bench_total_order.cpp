// E9 — Totally ordered multicast layered on the service (the [13]-style
// layering of Section 4.1.1: FIFO is the base service; stronger orders are
// built on top).
//
// Measures end-to-end totally ordered delivery latency and throughput vs
// group size. Ordering adds ~one extra hop through the sequencer for
// non-sequencer senders.
#include "app/total_order.hpp"
#include "app/world.hpp"
#include "bench/helpers.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

struct Result {
  double avg_latency_ms;
  double msgs_per_sec;
  bool agreed;
};

Result run_case(int n, int messages, obs::BenchArtifact& art,
                obs::Registry& reg) {
  app::WorldConfig cfg;
  cfg.num_clients = n;
  cfg.record_trace = false;
  app::World w(cfg);
  const Tally<app::World> tally{art, reg, w};

  std::vector<std::unique_ptr<app::TotalOrder>> to;
  std::vector<std::vector<std::string>> orders(static_cast<std::size_t>(n));
  std::map<std::string, sim::Time> sent_at;
  double latency_sum = 0;
  std::uint64_t latency_count = 0;
  sim::Time last_delivery = 0;
  for (int i = 0; i < n; ++i) {
    to.push_back(std::make_unique<app::TotalOrder>(w.client(i),
                                                   w.process(i).id()));
    to.back()->on_deliver([&, i](ProcessId from, const std::string& payload) {
      orders[static_cast<std::size_t>(i)].push_back(to_string(from) + ":" +
                                                    payload);
      auto it = sent_at.find(payload);
      if (it != sent_at.end()) {
        latency_sum += ms(w.sim().now() - it->second);
        ++latency_count;
        last_delivery = std::max(last_delivery, w.sim().now());
      }
    });
  }
  w.start();
  if (!w.run_until_converged(w.all_members(), 20 * sim::kSecond)) {
    return {-1, -1, false};
  }

  const sim::Time start = w.sim().now();
  for (int k = 0; k < messages; ++k) {
    const int sender = k % n;
    w.sim().schedule_at(start + k * 200, [&, sender, k]() {
      const std::string payload = "m" + std::to_string(k);
      sent_at[payload] = w.sim().now();
      to[static_cast<std::size_t>(sender)]->send(payload);
    });
  }
  w.run_for(30 * sim::kSecond);
  w.finalize_checkers();

  bool agreed = true;
  for (int i = 1; i < n; ++i) {
    if (orders[static_cast<std::size_t>(i)] != orders[0]) agreed = false;
  }
  const double span_s = ms(last_delivery - start) / 1000.0;
  return {latency_sum / static_cast<double>(latency_count * n),
          span_s > 0 ? messages / span_s : 0, agreed};
}

}  // namespace

int main() {
  std::cout << "E9: totally ordered multicast on top of the GCS\n";
  std::cout << "(all members sending round-robin, 5k msg/s offered)\n";
  obs::BenchArtifact art("total_order");
  art.config("messages") = 300;
  obs::Registry reg;
  Table t({"group size", "avg TO latency (ms)", "msgs/s", "orders agree"});
  for (int n : {2, 4, 8, 12}) {
    const Result r = run_case(n, 300, art, reg);
    t.row(n, r.avg_latency_ms, r.msgs_per_sec, r.agreed ? "yes" : "NO");
    obs::JsonValue& row = art.add_result();
    row["group_size"] = n;
    row["avg_to_latency_ms"] = r.avg_latency_ms;
    row["msgs_per_sec"] = r.msgs_per_sec;
    row["orders_agree"] = r.agreed;
  }
  t.print("total order throughput / latency");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: TO latency ~ 2 hops (data + sequencer order "
               "message), flat-ish in group size; every member sees the "
               "identical order.\n";
  return 0;
}
