// E7 — Crash and recovery without stable storage (Section 8), full stack.
//
// Measures (a) how long survivors take to exclude a crashed member (failure
// detection + membership round + one client round), and (b) how long a
// recovered member takes to rejoin under its original identity. Both scale
// with the failure detector's timeout, not with group size — the claim of a
// client-server membership design.
#include "app/world.hpp"
#include "bench/helpers.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

struct Result {
  double exclude_ms;  // crash -> survivors install the smaller view
  double rejoin_ms;   // recover -> everyone installs the full view
};

Result run_case(int n, sim::Time fd_timeout, obs::BenchArtifact& art,
                obs::Registry& reg) {
  app::WorldConfig cfg;
  cfg.num_clients = n;
  cfg.record_trace = false;
  cfg.server.fd_timeout = fd_timeout;
  app::World w(cfg);
  const Tally<app::World> tally{art, reg, w};
  w.start();
  if (!w.run_until_converged(w.all_members(), 20 * sim::kSecond)) {
    return {-1, -1};
  }

  std::set<ProcessId> survivors = w.all_members();
  survivors.erase(ProcessId{static_cast<std::uint32_t>(n)});

  const sim::Time crash_at = w.sim().now();
  w.process(n - 1).crash();
  if (!w.run_until_converged(survivors, 60 * sim::kSecond)) return {-1, -1};
  const double exclude = ms(w.sim().now() - crash_at);

  const sim::Time recover_at = w.sim().now();
  w.process(n - 1).recover();
  if (!w.run_until_converged(w.all_members(), 60 * sim::kSecond)) {
    return {exclude, -1};
  }
  w.finalize_checkers();
  return {exclude, ms(w.sim().now() - recover_at)};
}

}  // namespace

int main() {
  std::cout << "E7: crash exclusion and recovery rejoin latency, full stack\n";
  obs::BenchArtifact art("crash_recovery");
  obs::Registry reg;
  Table t({"group size", "FD timeout (ms)", "exclude (ms)", "rejoin (ms)"});
  for (int n : {3, 6, 12}) {
    for (sim::Time fd :
         {100 * sim::kMillisecond, 250 * sim::kMillisecond,
          1000 * sim::kMillisecond}) {
      const Result r = run_case(n, fd, art, reg);
      t.row(n, ms(fd), r.exclude_ms, r.rejoin_ms);
      obs::JsonValue& row = art.add_result();
      row["group_size"] = n;
      row["fd_timeout_ms"] = ms(fd);
      row["exclude_ms"] = r.exclude_ms;
      row["rejoin_ms"] = r.rejoin_ms;
    }
  }
  t.print("fault handling latency");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: exclusion ~ FD timeout + one membership round "
               "+ one client round, roughly flat in group size; rejoin needs "
               "no FD timeout, only rounds.\n";
  return 0;
}
