// WAN deployment example: the paper's target setting (Section 1 — scalable
// group communication in wide-area networks). Two "sites", each with its own
// membership server and a designated sync-aggregation leader (the Section 9
// two-tier extension), higher link latencies, and a causally ordered
// application stream on top.
//
//   $ ./examples/wan_deployment
#include <iostream>

#include "app/causal_order.hpp"
#include "app/world.hpp"

using namespace vsgc;

int main() {
  constexpr int kClients = 6;
  app::WorldConfig config;
  config.num_clients = kClients;
  config.num_servers = 2;
  config.net.base_latency = 20 * sim::kMillisecond;  // WAN-ish links
  config.net.jitter = 5 * sim::kMillisecond;
  // Site A: p1..p3 led by p1; site B: p4..p6 led by p4.
  config.sync_routing = gcs::SyncRouting::two_tier(kClients, 2);
  config.sync_routing.compact_sync_to_strangers = true;
  app::World world(config);

  std::vector<std::unique_ptr<app::CausalOrder>> stream;
  for (int i = 0; i < kClients; ++i) {
    stream.push_back(std::make_unique<app::CausalOrder>(
        world.client(i), world.process(i).id()));
    const int idx = i;
    stream.back()->on_deliver(
        [idx](ProcessId from, const std::string& payload) {
          if (idx == 2 || idx == 5) {  // one observer per site
            std::cout << "  [p" << idx + 1 << "] <- " << to_string(from)
                      << ": " << payload << "\n";
          }
        });
  }

  std::cout << "Bringing up 6 clients across 2 sites (20 ms WAN links)...\n";
  world.start();
  if (!world.run_until_converged(world.all_members(), 20 * sim::kSecond)) {
    std::cerr << "never converged\n";
    return 1;
  }
  std::cout << "Converged at t=" << world.sim().now() / sim::kMillisecond
            << " ms.\n\nCross-site causal conversation:\n";

  stream[0]->send("site A: release candidate ready");
  world.run_for(200 * sim::kMillisecond);
  stream[3]->send("site B: starting validation");
  world.run_for(200 * sim::kMillisecond);
  stream[4]->send("site B: validation passed");
  world.run_for(2 * sim::kSecond);

  std::cout << "\nSite B's leader (p4) departs; the group reconfigures and "
               "members fall back as needed...\n";
  world.process(3).crash();
  world.run_for(10 * sim::kSecond);
  stream[0]->send("site A: proceeding without p4");
  world.run_for(2 * sim::kSecond);

  std::uint64_t relays = 0;
  for (int i = 0; i < kClients; ++i) {
    relays += world.process(i).endpoint().vs_stats().aggregates_relayed;
  }
  std::cout << "\nLeader-aggregated sync relays performed: " << relays
            << "\nAll safety checkers stayed green.\n";
  world.checkers().finalize();
  return 0;
}
