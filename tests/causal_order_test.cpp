// Tests for the causal-order multicast layer: potential causality (Lamport's
// happened-before) must be respected even when retransmission delays invert
// cross-sender arrival order — and without the layer, raw FIFO delivery does
// exhibit such inversions, which the control test demonstrates.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/causal_order.hpp"
#include "app/world.hpp"

namespace vsgc {
namespace {

/// Scenario: p1 multicasts "ask"; p2 multicasts "reply" the moment it sees
/// the ask. Observers at p3 record arrival order. Under loss, the ask
/// p1->p3 may be retransmitted and arrive after p2's reply (a causality
/// inversion at the raw FIFO layer).
struct CausalRig {
  explicit CausalRig(std::uint64_t seed, double drop, bool use_causal) {
    app::WorldConfig cfg;
    cfg.num_clients = 3;
    cfg.seed = seed;
    cfg.net.drop_probability = drop;
    world = std::make_unique<app::World>(cfg);
    if (use_causal) {
      for (int i = 0; i < 3; ++i) {
        causal.push_back(std::make_unique<app::CausalOrder>(
            world->client(i), world->process(i).id()));
      }
      causal[1]->on_deliver([this](ProcessId, const std::string& payload) {
        if (payload.starts_with("ask")) causal[1]->send("reply-to-" + payload);
      });
      causal[2]->on_deliver([this](ProcessId, const std::string& payload) {
        order.push_back(payload);
      });
    } else {
      world->client(1).on_deliver([this](ProcessId, const gcs::AppMsg& m) {
        if (m.payload().starts_with("ask")) {
          world->client(1).send("reply-to-" + m.payload());
        }
      });
      world->client(2).on_deliver([this](ProcessId, const gcs::AppMsg& m) {
        order.push_back(m.payload());
      });
    }
  }

  void run_rounds(int rounds) {
    world->start();
    ASSERT_TRUE(world->run_until_converged(world->all_members(),
                                           10 * sim::kSecond));
    for (int k = 0; k < rounds; ++k) {
      const std::string ask = "ask" + std::to_string(k);
      if (!causal.empty()) causal[0]->send(ask);
      else world->client(0).send(ask);
      world->run_for(300 * sim::kMillisecond);
    }
    world->run_for(5 * sim::kSecond);
  }

  /// Number of replies observed before their own ask.
  int inversions() const {
    int count = 0;
    std::set<std::string> seen;
    for (const std::string& payload : order) {
      if (payload.starts_with("reply-to-")) {
        if (!seen.contains(payload.substr(9))) ++count;
      } else {
        seen.insert(payload);
      }
    }
    return count;
  }

  std::unique_ptr<app::World> world;
  std::vector<std::unique_ptr<app::CausalOrder>> causal;
  std::vector<std::string> order;
};

TEST(CausalOrder, RawFifoExhibitsInversionsUnderLoss) {
  // Control: find a seed where per-sender FIFO alone inverts causality.
  int total_inversions = 0;
  for (std::uint64_t seed = 1; seed <= 8 && total_inversions == 0; ++seed) {
    CausalRig rig(seed, /*drop=*/0.35, /*use_causal=*/false);
    rig.run_rounds(20);
    total_inversions += rig.inversions();
  }
  EXPECT_GT(total_inversions, 0)
      << "expected at least one causality inversion at the raw FIFO layer "
         "across these seeds; if the network model changed, tune the seeds";
}

TEST(CausalOrder, LayerRestoresCausalDelivery) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CausalRig rig(seed, /*drop=*/0.35, /*use_causal=*/true);
    rig.run_rounds(20);
    EXPECT_EQ(rig.inversions(), 0) << "seed " << seed;
    EXPECT_GE(rig.order.size(), 30u) << "liveness: asks and replies flowed";
  }
}

TEST(CausalOrder, CleanNetworkPassesThrough) {
  CausalRig rig(3, /*drop=*/0.0, /*use_causal=*/true);
  rig.run_rounds(10);
  EXPECT_EQ(rig.inversions(), 0);
  EXPECT_EQ(rig.order.size(), 20u);  // 10 asks + 10 replies
}

TEST(CausalOrder, SurvivesViewChange) {
  CausalRig rig(5, /*drop=*/0.0, /*use_causal=*/true);
  rig.world->start();
  ASSERT_TRUE(rig.world->run_until_converged(rig.world->all_members(),
                                             10 * sim::kSecond));
  rig.causal[0]->send("ask-pre");
  rig.world->run_for(sim::kSecond);
  // p2 (a passive observer here) leaves; the remaining pair keeps flowing.
  rig.world->process(1).crash();
  rig.world->run_for(8 * sim::kSecond);
  rig.causal[0]->send("ask-post");
  rig.world->run_for(2 * sim::kSecond);
  std::vector<std::string> expect{"ask-pre", "reply-to-ask-pre", "ask-post"};
  EXPECT_EQ(rig.order, expect);
  EXPECT_EQ(rig.causal[2]->buffered(), 0u);
}

TEST(CausalOrder, ConcurrentSendersAllDelivered) {
  app::WorldConfig cfg;
  cfg.num_clients = 4;
  cfg.net.drop_probability = 0.2;
  cfg.seed = 11;
  app::World w(cfg);
  std::vector<std::unique_ptr<app::CausalOrder>> co;
  std::vector<int> rx(4, 0);
  for (int i = 0; i < 4; ++i) {
    co.push_back(std::make_unique<app::CausalOrder>(w.client(i),
                                                    w.process(i).id()));
    co.back()->on_deliver(
        [&rx, i](ProcessId, const std::string&) { ++rx[static_cast<std::size_t>(i)]; });
  }
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) co[static_cast<std::size_t>(i)]->send("m");
    w.run_for(500 * sim::kMillisecond);
  }
  w.run_for(5 * sim::kSecond);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)], 20) << "endpoint " << i;
    EXPECT_EQ(co[static_cast<std::size_t>(i)]->buffered(), 0u);
  }
  w.checkers().finalize();
}

}  // namespace
}  // namespace vsgc
