// End-to-end smoke test: the full stack (network → CO_RFIFO → membership
// servers → GCS end-points → blocking clients) with every spec checker
// attached, on the happy path.
#include <gtest/gtest.h>

#include "app/world.hpp"
#include "spec/liveness_checker.hpp"

namespace vsgc {
namespace {

TEST(Smoke, ThreeProcessesConvergeAndMulticast) {
  app::WorldConfig config;
  config.num_clients = 3;
  config.num_servers = 1;
  app::World world(config);

  std::vector<std::vector<std::string>> received(4);
  for (int i = 0; i < 3; ++i) {
    world.client(i).on_deliver([&received, i](ProcessId from,
                                              const gcs::AppMsg& m) {
      received[static_cast<std::size_t>(i)].push_back(
          to_string(from) + ":" + m.payload());
    });
  }

  world.start();
  ASSERT_TRUE(world.run_until_converged(world.all_members(),
                                        5 * sim::kSecond))
      << "GCS never delivered the initial 3-member view";

  world.client(0).send("hello");
  world.client(1).send("world");
  world.run_for(1 * sim::kSecond);

  for (int i = 0; i < 3; ++i) {
    const auto& r = received[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.size(), 2u) << "process " << i;
  }

  world.checkers().finalize();
  EXPECT_TRUE(spec::LivenessChecker::check(world.trace().recorded()));
}

}  // namespace
}  // namespace vsgc
