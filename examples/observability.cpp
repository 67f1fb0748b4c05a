// Observability tour: run a full simulated deployment through a crash and a
// rejoin, then derive its metrics after the fact — the trace metrics from
// the bus's recorded trace, the layer counters from one world snapshot — and
// export the execution as JSONL plus a Chrome-trace timeline. Exits 1 if any
// reconfiguration fails to converge; a spec violation aborts the run.
//
//   $ ./examples/observability
//   $ # then open observability_timeline.json at https://ui.perfetto.dev
//
// Try VSGC_LOG_LEVEL=trace to see sim-timestamped protocol narration too.
#include <fstream>
#include <iostream>
#include <set>

#include "app/world.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_recorder.hpp"

using namespace vsgc;

int main() {
  app::WorldConfig config;
  config.num_clients = 4;
  config.num_servers = 2;
  app::World world(config);

  // The trace bus records the run (on by default in app::World); nothing in
  // the protocol stack knows it is being measured.
  world.start();
  if (!world.run_until_converged(world.all_members(), 10 * sim::kSecond)) {
    std::cerr << "group never converged\n";
    return 1;
  }
  for (int i = 0; i < world.num_clients(); ++i) {
    world.client(i).send("hello from p" + std::to_string(i + 1));
  }
  world.run_for(sim::kSecond);

  // A crash and a rejoin: two reconfigurations for the metrics to measure.
  world.process(3).crash();
  std::set<ProcessId> survivors = world.all_members();
  survivors.erase(ProcessId{4});
  if (!world.run_until_converged(survivors, 30 * sim::kSecond)) {
    std::cerr << "survivors never converged after the crash\n";
    return 1;
  }
  world.process(3).recover();
  if (!world.run_until_converged(world.all_members(), 30 * sim::kSecond)) {
    std::cerr << "group never converged after the rejoin\n";
    return 1;
  }
  world.finalize_checkers();

  // Post-mortem: every metric derives from the recorded trace or from the
  // layers' own counters.
  const std::vector<spec::Event>& trace = world.trace().recorded();
  obs::Registry registry;
  obs::record_trace_metrics(obs::analyze(trace), registry);
  world.snapshot(registry);
  std::cout << "Derived metrics after " << world.sim().now() / sim::kMillisecond
            << " simulated ms:\n"
            << registry.to_json().dump_pretty() << "\n";

  std::ofstream jsonl("observability_trace.jsonl", std::ios::binary);
  obs::write_jsonl(trace, jsonl);
  std::ofstream timeline("observability_timeline.json", std::ios::binary);
  obs::write_chrome_trace(trace, timeline);
  std::cout << "\nWrote observability_trace.jsonl (" << trace.size()
            << " events) and observability_timeline.json — open the latter in "
               "https://ui.perfetto.dev to see membership and VS rounds "
               "overlap per process.\n";
  return 0;
}
