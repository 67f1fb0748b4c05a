// E8 — Client-server membership scalability (the architectural claim of
// Section 1: dedicated membership servers keep per-client costs low and the
// service scalable in the number of clients).
//
// Measures convergence time and SERVER-side message load for growing client
// populations and server counts. Server load per view change should scale
// with its local clients + number of servers, not with the total client
// population squared.
#include "app/world.hpp"
#include "bench/helpers.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

struct Result {
  double converge_ms;
  double change_msgs_per_client;  ///< server msgs for ONE steady-state change
  std::uint64_t rounds;
};

Result run_case(int clients, int servers, obs::BenchArtifact& art,
                obs::Registry& reg) {
  app::WorldConfig cfg;
  cfg.num_clients = clients;
  cfg.num_servers = servers;
  cfg.record_trace = false;
  app::World w(cfg);
  const Tally<app::World> tally{art, reg, w};
  w.start();
  if (!w.run_until_converged(w.all_members(), 60 * sim::kSecond)) {
    return {-1, -1, 0};
  }
  const double converge = ms(w.sim().now());

  // Steady-state reconfiguration: one client leaves; measure the membership
  // servers' message cost for that single view change.
  std::uint64_t before = 0;
  for (int s = 0; s < servers; ++s) {
    before += w.server(s).transport().stats().messages_sent;
  }
  std::set<ProcessId> survivors = w.all_members();
  survivors.erase(ProcessId{static_cast<std::uint32_t>(clients)});
  w.process(clients - 1).crash();
  if (!w.run_until_converged(survivors, 60 * sim::kSecond)) return {-1, -1, 0};
  std::uint64_t after = 0;
  std::uint64_t rounds = 0;
  for (int s = 0; s < servers; ++s) {
    after += w.server(s).transport().stats().messages_sent;
    rounds += w.server(s).stats().rounds_started;
  }
  w.finalize_checkers();
  return {converge, static_cast<double>(after - before) / clients, rounds};
}

}  // namespace

int main() {
  std::cout << "E8: membership service scalability (client-server design)\n";
  obs::BenchArtifact art("membership");
  obs::Registry reg;
  Table t({"clients", "servers", "converge (ms)",
           "change msgs/client", "total rounds"});
  for (int servers : {1, 2, 4}) {
    for (int clients : {4, 8, 16, 32}) {
      const Result r = run_case(clients, servers, art, reg);
      t.row(clients, servers, r.converge_ms, r.change_msgs_per_client,
            r.rounds);
      obs::JsonValue& row = art.add_result();
      row["clients"] = clients;
      row["servers"] = servers;
      row["converge_ms"] = r.converge_ms;
      row["change_msgs_per_client"] = r.change_msgs_per_client;
      row["total_rounds"] = r.rounds;
    }
  }
  t.print("membership convergence and server load");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: per-change server messages per client stay "
               "roughly flat (~2-3: one start_change + one view per client, "
               "plus O(servers) proposals) as the population grows — clients "
               "never talk to each other to maintain membership.\n";
  return 0;
}
