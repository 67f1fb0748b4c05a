// The recipes whose heap allocations tests/alloc_budget_test.cpp budgets and
// tests/alloc_sites.cpp breaks down by site, and the exact counts they
// measure. Each executable counts every operator new itself; a simulated
// execution is a pure function of its seed, so a recipe's count repeats
// exactly and the two executables agree on it.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "app/world.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc::alloc_recipes {

/// The exact counts: allocations per view change of churn(16, 4), and
/// allocations of stress_seed(kStressSeed).
inline constexpr double kChurnPerViewChange = 370;
inline constexpr std::uint64_t kStressSeedAllocations = 1485;
/// The seed stress_seed() runs: the first seed of perfbench's stress pool.
inline constexpr std::uint64_t kStressSeed = 1000000000;

/// perfbench's `churn` recipe on n clients and n/4 servers, checkers and
/// recording off, over `cycles` counted crash-and-return cycles. Each cycle
/// every client sends 64 B, one client crashes, the survivors reconverge,
/// it recovers, and all n reconverge: two view changes. The first cycle
/// warms the deployment up; `mark()` runs once it is done, where counting
/// starts. Returns the number of counted view changes.
template <class Mark>
int churn(int n, int cycles, Mark&& mark) {
  app::WorldConfig wc;
  wc.num_clients = n;
  wc.num_servers = n / 4;
  wc.attach_checkers = false;
  wc.record_trace = false;
  app::World w(wc);
  w.start();
  const std::set<ProcessId> all = w.all_members();
  if (!w.run_until_converged(all, 10 * sim::kSecond)) return 0;
  const std::string payload(64, 'c');
  for (int k = 0; k <= cycles; ++k) {
    if (k == 1) mark();
    for (int c = 0; c < n; ++c) w.client(c).send(payload);
    const int victim = k % n;
    std::set<ProcessId> survivors = all;
    survivors.erase(w.process(victim).id());
    w.process(victim).crash();
    if (!w.run_until_converged(survivors, 5 * sim::kSecond)) return 0;
    w.process(victim).recover();
    if (!w.run_until_converged(all, 5 * sim::kSecond)) return 0;
  }
  return 2 * cycles;
}

/// One seed of perfbench's `stress` recipe, which is vsgc_stress's: 4
/// clients and 1 server under the exact checkers with the trace recorded,
/// 25 churn steps drawn by the injector, then stabilize_and_check
/// (reconverge, probe, finalize, liveness). The world is built and
/// destroyed inside the call. Returns whether the run converged and passed.
inline bool stress_seed(std::uint64_t seed) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.num_servers = 1;
  wc.seed = seed;
  app::World w(wc);
  sim::FailureInjector::Policy policy;
  policy.steps = 25;
  sim::FailureInjector injector(w.fault_target(), policy, seed);
  w.start();
  if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) return false;
  injector.run_churn();
  w.stabilize_and_check(injector, "stress-probe-" + std::to_string(seed));
  return true;
}

}  // namespace vsgc::alloc_recipes
