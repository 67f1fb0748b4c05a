// Quickstart: bring up a simulated deployment (membership servers + GCS
// end-points), join three processes into one group, multicast messages, and
// watch views and deliveries arrive.
//
//   $ ./examples/quickstart
#include <iostream>

#include "app/world.hpp"

using namespace vsgc;

int main() {
  app::WorldConfig config;
  config.num_clients = 3;
  config.num_servers = 1;
  app::World world(config);

  for (int i = 0; i < 3; ++i) {
    const int idx = i;
    world.client(i).on_view([idx](const View& v,
                                  const ProcessSet& transitional) {
      std::cout << "  [p" << idx + 1 << "] view " << to_string(v)
                << "  transitional={";
      for (ProcessId q : transitional) std::cout << " " << to_string(q);
      std::cout << " }\n";
    });
    world.client(i).on_deliver([idx](ProcessId from, const gcs::AppMsg& m) {
      std::cout << "  [p" << idx + 1 << "] got \"" << m.payload() << "\" from "
                << to_string(from) << "\n";
    });
  }

  std::cout << "Starting membership servers and GCS end-points...\n";
  world.start();
  if (!world.run_until_converged(world.all_members(), 5 * sim::kSecond)) {
    std::cerr << "group never converged\n";
    return 1;
  }
  std::cout << "Group converged in "
            << world.sim().now() / sim::kMillisecond << " simulated ms.\n";

  std::cout << "p1 multicasts 'hello group'...\n";
  world.client(0).send("hello group");
  std::cout << "p2 multicasts 'hi p1'...\n";
  world.client(1).send("hi p1");
  world.run_for(1 * sim::kSecond);

  std::cout << "Crashing p3; the group reconfigures around it...\n";
  world.process(2).crash();
  world.run_for(5 * sim::kSecond);

  std::cout << "p1 multicasts 'two of us now'...\n";
  world.client(0).send("two of us now");
  world.run_for(1 * sim::kSecond);

  std::cout << "Done. All safety checkers stayed green.\n";
  world.checkers().finalize();
  return 0;
}
