// vsgc_trace: causal span analysis of recorded executions (DESIGN.md §10).
//
// Two modes share the analysis pipeline:
//
//   vsgc_trace <trace.jsonl> [options]
//     Parse a JSONL trace (obs::write_jsonl format), reconstruct every
//     message lifecycle and view-change span, and report per-phase latency
//     percentiles, queue-wait vs wire-time decomposition, the slowest
//     deliveries with their critical path, and orphan detection — expected
//     deliveries that never happened, classified as legitimate (crash,
//     exclusion by the view-change cut, trace truncation) or as a genuine
//     virtual-synchrony loss ("unexplained").
//
//   vsgc_trace --record [options]
//     Build a seeded app::World with lifecycle spans on, drive a paced
//     message workload (optionally under FailureInjector churn), check the
//     run against the exact spec checkers (including their end-of-run
//     finalize), and analyze the bus's recorded trace — the self-contained
//     form the CI gate uses.
//
// The report is byte-deterministic: integers only, exact nearest-rank
// percentiles, fixed ordering — same seed => identical bytes. --json DIR
// additionally writes BENCH_tracelat.json under the bench-artifact schema
// (validated by tools/validate_bench_json): the phase rows plus every
// trace-derived metric obs::record_trace_metrics folds from the same
// analysis (span.* and the headline gcs.*/mbr.* metrics). The metrics are a
// pure function of the trace, so re-analyzing a --jsonl dump of a --record
// run reproduces the record run's metrics exactly.
//
// Gates: --check-no-orphans fails unless every expected delivery completed
// (the fault-free contract); --check-clean fails only on "unexplained"
// orphans (the churn contract: losses must be attributable to faults).
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "cli.hpp"
#include "obs/artifact.hpp"
#include "obs/span.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc {
namespace {

struct Options {
  std::string input;       ///< JSONL path (analyze mode)
  bool record = false;
  std::string report_path; ///< empty: stdout
  std::string json_dir;    ///< empty: no BENCH_tracelat.json
  std::string jsonl_path;  ///< record mode: also dump the recorded trace
  int top = 5;
  bool check_no_orphans = false;
  bool check_clean = false;
  // Record-mode workload shape.
  std::uint64_t seed = 1;
  int clients = 4;
  int servers = 1;
  int messages = 40;
  bool churn = false;
  bool two_tier = false;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <trace.jsonl> [options]\n"
      << "       " << argv0 << " --record [options]\n"
      << "options:\n"
      << "  --report FILE       write the span report to FILE (default: stdout)\n"
      << "  --json DIR          write BENCH_tracelat.json into DIR\n"
      << "  --jsonl FILE        (record) also write the recorded trace JSONL\n"
      << "  --top K             slowest-delivery listing depth (default 5)\n"
      << "  --check-no-orphans  fail unless every expected delivery completed\n"
      << "  --check-clean       fail on 'unexplained' orphans only\n"
      << "  --seed N            (record) world + injector seed (default 1)\n"
      << "  --clients N         (record) client processes (default 4)\n"
      << "  --servers N         (record) membership servers (default 1)\n"
      << "  --messages N        (record) paced app messages (default 40)\n"
      << "  --churn             (record) drive FailureInjector churn\n"
      << "  --two-tier          (record) two-tier sync-message routing\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--record") {
      opt->record = true;
    } else if (a == "--report") {
      const char* v = next("--report");
      if (v == nullptr) return false;
      opt->report_path = v;
    } else if (a == "--json") {
      const char* v = next("--json");
      if (v == nullptr) return false;
      opt->json_dir = v;
    } else if (a == "--jsonl") {
      const char* v = next("--jsonl");
      if (v == nullptr) return false;
      opt->jsonl_path = v;
    } else if (a == "--top") {
      const char* v = next("--top");
      if (v == nullptr) return false;
      if (!parse_int(v, 0, INT_MAX, &opt->top)) return false;
    } else if (a == "--check-no-orphans") {
      opt->check_no_orphans = true;
    } else if (a == "--check-clean") {
      opt->check_clean = true;
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      if (!parse_int(v, 0, UINT64_MAX, &opt->seed)) return false;
    } else if (a == "--clients") {
      const char* v = next("--clients");
      if (v == nullptr) return false;
      if (!parse_int(v, 1, INT_MAX, &opt->clients)) return false;
    } else if (a == "--servers") {
      const char* v = next("--servers");
      if (v == nullptr) return false;
      if (!parse_int(v, 1, INT_MAX, &opt->servers)) return false;
    } else if (a == "--messages") {
      const char* v = next("--messages");
      if (v == nullptr) return false;
      if (!parse_int(v, 0, INT_MAX, &opt->messages)) return false;
    } else if (a == "--churn") {
      opt->churn = true;
    } else if (a == "--two-tier") {
      opt->two_tier = true;
    } else if (!a.empty() && a[0] != '-' && opt->input.empty()) {
      opt->input = a;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  if (!opt->record && opt->input.empty()) return false;
  if (opt->record && !opt->input.empty()) {
    std::cerr << "--record and a trace file are mutually exclusive\n";
    return false;
  }
  return true;
}

/// Record mode: seeded world, paced workload, optional churn, quiesce.
/// Returns false if the world never converged (nothing useful to analyze).
bool record_trace(const Options& opt, std::vector<spec::Event>* events,
                  obs::BenchArtifact* art) {
  app::WorldConfig wc;
  wc.num_clients = opt.clients;
  wc.num_servers = opt.servers;
  wc.seed = opt.seed;
  wc.record_trace = true;
  wc.lifecycle_spans = true;
  wc.attach_checkers = true;
  if (opt.two_tier) {
    wc.sync_routing = gcs::SyncRouting::two_tier(opt.clients, 2);
  }
  app::World world(wc);
  world.start();
  if (!world.run_until_converged(world.all_members(), 10 * sim::kSecond)) {
    std::cerr << "vsgc_trace: world failed to converge before the workload\n";
    return false;
  }

  if (opt.churn) {
    // Churn first, then stabilize and reconverge; the paced workload below
    // runs over the healed group, and the injector's own kTraffic ops give
    // the faulted window in-flight messages to orphan.
    sim::FailureInjector::Policy policy;
    policy.steps = 20;
    sim::FailureInjector injector(world.fault_target(), policy, opt.seed);
    injector.run_churn();
    injector.stabilize();
    if (!world.run_until_converged(world.all_members(), 30 * sim::kSecond)) {
      std::cerr << "vsgc_trace: world failed to reconverge after churn\n";
      return false;
    }
  }

  for (int m = 0; m < opt.messages; ++m) {
    world.client(m % opt.clients).send("trace-msg-" + std::to_string(m));
    world.run_for(2 * sim::kMillisecond);
  }
  // Quiesce: everything still in flight drains (retransmission timeout is
  // 20ms by default; leave a wide margin so fault-free runs fully settle).
  world.run_for(1 * sim::kSecond);
  world.finalize_checkers();

  *events = world.trace().recorded();
  if (art != nullptr) art->tally(world.sim());
  return true;
}

}  // namespace
}  // namespace vsgc

int main(int argc, char** argv) {
  using namespace vsgc;
  Options opt;
  if (!parse_args(argc, argv, &opt)) return usage(argv[0]);

  obs::BenchArtifact art("tracelat");
  art.config("mode") = opt.record ? "record" : "analyze";
  if (opt.record) {
    art.config("seed") = static_cast<std::int64_t>(opt.seed);
    art.config("clients") = opt.clients;
    art.config("servers") = opt.servers;
    art.config("messages") = opt.messages;
    art.config("churn") = opt.churn;
    art.config("routing") = opt.two_tier ? "two_tier" : "direct";
  } else {
    art.config("input") = opt.input;
  }

  std::vector<spec::Event> events;
  if (opt.record) {
    if (!record_trace(opt, &events, &art)) return 2;
    if (!opt.jsonl_path.empty()) {
      std::ofstream ofs(opt.jsonl_path, std::ios::binary);
      if (!ofs) {
        std::cerr << "vsgc_trace: cannot write " << opt.jsonl_path << "\n";
        return 2;
      }
      obs::write_jsonl(events, ofs);
    }
  } else {
    std::ifstream ifs(opt.input, std::ios::binary);
    if (!ifs) {
      std::cerr << "vsgc_trace: cannot open " << opt.input << "\n";
      return 2;
    }
    if (!obs::read_jsonl(ifs, &events)) {
      std::cerr << "vsgc_trace: malformed JSONL in " << opt.input << "\n";
      return 2;
    }
  }

  const obs::TraceAnalysis analysis = obs::analyze(events);

  // The report (byte-deterministic; see DESIGN.md §10).
  if (opt.report_path.empty()) {
    obs::write_trace_report(analysis, std::cout, opt.top);
  } else {
    std::ofstream ofs(opt.report_path, std::ios::binary);
    if (!ofs) {
      std::cerr << "vsgc_trace: cannot write " << opt.report_path << "\n";
      return 2;
    }
    obs::write_trace_report(analysis, ofs, opt.top);
  }

  // BENCH_tracelat.json: summary + per-phase rows, the same phase samples
  // as span.* histograms, and the headline metrics.
  if (!opt.json_dir.empty()) {
    obs::append_tracelat_results(analysis, art);
    obs::Registry reg;
    obs::record_trace_metrics(analysis, reg);
    art.set_metrics(reg);
    if (!opt.record) {
      art.tally(sim::Simulator::Stats{}, analysis.end_at);
    }
    const std::string path = art.write_file(opt.json_dir);
    if (path.empty()) {
      std::cerr << "vsgc_trace: failed to write BENCH_tracelat.json\n";
      return 2;
    }
  }

  int rc = 0;
  if (opt.check_no_orphans && analysis.orphans != 0) {
    std::cerr << "vsgc_trace: --check-no-orphans FAILED: " << analysis.orphans
              << " of " << analysis.legs_expected
              << " expected deliveries missing\n";
    rc = 1;
  }
  if (opt.check_clean && analysis.unexplained() != 0) {
    std::cerr << "vsgc_trace: --check-clean FAILED: "
              << analysis.unexplained()
              << " unexplained lost deliveries (virtual synchrony violated)\n";
    rc = 1;
  }
  return rc;
}
