// Tests for the parallel batch-execution engine: full index coverage, task-
// order result merging, exception selection, and the determinism contract —
// identical per-seed results for any --jobs value, which is what lets the
// sweep tools advertise byte-identical output regardless of parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "app/world.hpp"
#include "sim/batch.hpp"

namespace vsgc::sim {
namespace {

TEST(BatchRunner, HardwareJobsHasFloorOfOne) {
  EXPECT_GE(BatchRunner::hardware_jobs(), 1u);
  EXPECT_GE(BatchRunner(0).jobs(), 1u);  // 0 = auto-detect
}

TEST(BatchRunner, RunsEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {1u, 2u, 3u, 8u}) {
    BatchRunner runner(jobs);
    std::vector<std::atomic<int>> hits(257);
    runner.for_each(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(BatchRunner, CountSmallerThanJobsStillCovers) {
  BatchRunner runner(8);
  std::vector<std::atomic<int>> hits(3);
  runner.for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  runner.for_each(0, [&](std::size_t) { FAIL() << "no tasks to run"; });
}

TEST(BatchRunner, MapReturnsResultsInTaskIndexOrder) {
  for (const std::size_t jobs : {1u, 4u}) {
    BatchRunner runner(jobs);
    const std::vector<std::uint64_t> out = runner.map<std::uint64_t>(
        100, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<std::uint64_t>(i * i));
    }
  }
}

TEST(BatchRunner, SkewedTaskDurationsAllComplete) {
  // Front-loaded heavy tasks force idle workers to steal from the owner's
  // tail; every index must still run exactly once.
  BatchRunner runner(4);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<std::uint64_t> sink{0};
  runner.for_each(hits.size(), [&](std::size_t i) {
    std::uint64_t acc = i;
    const std::uint64_t spins = (i < 4) ? 400000 : 200;
    for (std::uint64_t s = 0; s < spins; ++s) {
      acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_add(acc, std::memory_order_relaxed);
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(BatchRunner, RunsTasksConcurrently) {
  // Every task arrives, then waits for all four to have arrived. Only a
  // runner that has all four tasks in flight at once gets each task to see
  // four arrivals; a serialising runner leaves the first task waiting alone.
  // The shared deadline turns that into a failure instead of a hang.
  constexpr std::size_t kTasks = 4;
  BatchRunner runner(kTasks);
  std::atomic<std::size_t> arrived{0};
  std::vector<std::size_t> seen(kTasks, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  runner.for_each(kTasks, [&](std::size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < kTasks &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    seen[i] = arrived.load();
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(seen[i], kTasks) << "task " << i << " ran without the others";
  }
}

TEST(BatchRunner, LowestThrownIndexWinsSequentially) {
  BatchRunner runner(1);
  std::vector<int> ran;
  try {
    runner.for_each(16, [&](std::size_t i) {
      ran.push_back(static_cast<int>(i));
      if (i >= 5) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
}

TEST(BatchRunner, LowestThrownIndexWinsInParallel) {
  BatchRunner runner(4);
  std::mutex mu;
  std::vector<std::size_t> thrown;
  try {
    runner.for_each(64, [&](std::size_t i) {
      if (i % 5 == 2) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          thrown.push_back(i);
        }
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    // Unstarted tasks may be skipped after the first throw, but among the
    // tasks that DID throw, the lowest index must be the one rethrown.
    std::size_t lowest = thrown.front();
    for (const std::size_t t : thrown) {
      if (t < lowest) lowest = t;
    }
    EXPECT_EQ(std::string(e.what()), std::to_string(lowest));
  }
}

// --- Determinism: per-seed World results independent of jobs ---------------

using WorldDigest =
    std::tuple<std::uint64_t, std::uint64_t, std::int64_t, bool>;

WorldDigest run_world(std::uint64_t seed) {
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  cfg.num_servers = 1;
  cfg.seed = seed;
  app::World w(cfg);
  w.start();
  const bool converged =
      w.run_until_converged(w.all_members(), 10 * sim::kSecond);
  return {w.sim().stats().events_executed, w.sim().stats().events_scheduled,
          w.sim().now(), converged};
}

TEST(BatchRunner, WorldSweepResultsIndependentOfJobs) {
  constexpr std::size_t kSeeds = 6;
  const BatchRunner sequential(1);
  const BatchRunner parallel(4);
  const auto base = sequential.map<WorldDigest>(
      kSeeds, [](std::size_t i) { return run_world(i + 1); });
  const auto par = parallel.map<WorldDigest>(
      kSeeds, [](std::size_t i) { return run_world(i + 1); });
  const auto par2 = parallel.map<WorldDigest>(
      kSeeds, [](std::size_t i) { return run_world(i + 1); });
  ASSERT_EQ(base.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(base[i], par[i]) << "seed " << i + 1 << " diverged at jobs=4";
    EXPECT_EQ(par[i], par2[i]) << "seed " << i + 1 << " not repeatable";
    EXPECT_TRUE(std::get<3>(base[i])) << "seed " << i + 1 << " no converge";
  }
}

}  // namespace
}  // namespace vsgc::sim
