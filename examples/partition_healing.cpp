// Partition-and-heal example: the partitionable semantics of the service.
// Two membership servers each serve two clients; a WAN partition splits the
// deployment into two live components that keep working independently, and
// the healed network merges them back into one view. Transitional sets tell
// each application exactly who it traveled with — the information it needs
// to reconcile state after the merge.
//
//   $ ./examples/partition_healing
#include <iostream>

#include "app/world.hpp"

using namespace vsgc;

namespace {

void print_view(int idx, const View& v, const ProcessSet& t) {
  std::cout << "  [p" << idx + 1 << "] view " << to_string(v.id) << " members={";
  for (ProcessId q : v.members()) std::cout << " " << to_string(q);
  std::cout << " } transitional={";
  for (ProcessId q : t) std::cout << " " << to_string(q);
  std::cout << " }\n";
}

}  // namespace

int main() {
  app::WorldConfig config;
  config.num_clients = 4;
  config.num_servers = 2;
  app::World world(config);

  for (int i = 0; i < 4; ++i) {
    const int idx = i;
    world.client(i).on_view(
        [idx](const View& v, const ProcessSet& t) {
          print_view(idx, v, t);
        });
    world.client(i).on_deliver([idx](ProcessId from, const gcs::AppMsg& m) {
      std::cout << "  [p" << idx + 1 << "] <- " << to_string(from) << ": "
                << m.payload() << "\n";
    });
  }

  std::cout << "Converging 4 clients across 2 membership servers...\n";
  world.start();
  if (!world.run_until_converged(world.all_members(), 8 * sim::kSecond)) {
    std::cerr << "never converged\n";
    return 1;
  }

  std::cout << "\n=== WAN partition: {s0, p1, p3} | {s1, p2, p4} ===\n";
  world.network().partition(
      {{net::node_of(ServerId{0}), net::node_of(ProcessId{1}),
        net::node_of(ProcessId{3})},
       {net::node_of(ServerId{1}), net::node_of(ProcessId{2}),
        net::node_of(ProcessId{4})}});
  world.run_for(10 * sim::kSecond);

  std::cout << "\nEach component keeps multicasting internally:\n";
  world.client(0).send("component A still alive");
  world.client(1).send("component B still alive");
  world.run_for(2 * sim::kSecond);

  std::cout << "\n=== Network heals; components merge ===\n";
  world.network().heal();
  if (!world.run_until_converged(world.all_members(), 20 * sim::kSecond)) {
    std::cerr << "merge never converged\n";
    return 1;
  }
  std::cout << "\nPost-merge multicast reaches everyone:\n";
  world.client(3).send("hello from the other side");
  world.run_for(2 * sim::kSecond);

  std::cout << "\nDone: disjoint views existed concurrently, transitional "
               "sets exposed each member's travel group, and the merge was "
               "virtually synchronous.\n";
  world.checkers().finalize();
  return 0;
}
