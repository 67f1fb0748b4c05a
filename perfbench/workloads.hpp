// The benchmark's four workloads. Each repetition ("rep") builds its own
// deployment from a seed, sets it up, runs a fixed amount of work and checks
// the outputs. With a Profiler the rep is the traced run: the transport's
// deliver handler and batch hooks are re-installed with spans around each
// layer call (copying gcs::Process's routing), and checkers are attached
// through timing TraceSinks; without one it is the plain deployment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profile.hpp"

namespace perfbench {

enum class Workload { kSteady, kChurn, kStress, kFanin };

bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

/// Work units per rep: ticks (steady, fanin), cycles (churn) or seeds
/// (stress).
int default_rep_size(Workload w);

/// Counts read from the layers' own stats() over a rep's measured part.
struct Counters {
  std::uint64_t ops = 0;         ///< deliveries, view changes or seeds
  std::uint64_t deliveries = 0;  ///< app deliveries seen by the benchmark
  std::uint64_t view_changes = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t net_packets = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t frames = 0;
  std::uint64_t entries = 0;
  std::uint64_t standalone_acks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t sack_suppressed = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t peak_unacked = 0;       ///< max over transports, not a sum
  std::uint64_t peak_out_of_order = 0;  ///< max over transports, not a sum
  std::uint64_t sync_msgs = 0;
  std::uint64_t forwards = 0;
  std::uint64_t full_views = 0;
  std::uint64_t delta_views = 0;

  Counters& operator+=(const Counters& o);
};

struct RepResult {
  Counters counters;
  std::uint64_t attempted = 0;  ///< correctness units checked
  std::uint64_t failed = 0;
  std::string failure;          ///< first failure, for the log
  double run_s = 0;             ///< wall time of the measured part
  std::uint64_t allocs = 0;     ///< heap allocations in the measured part
  std::vector<double> setup_s;  ///< one sample per deployment set up
  std::vector<double> step_ms;  ///< wall time per tick / view change / seed
  /// ops / wall time of each window of the measured part: a fixed run of
  /// ticks (steady, fanin) or the whole rep (churn, stress).
  std::vector<double> window_ops_per_s;
  std::vector<float> sim_latency_ms;
};

/// Run rep `index` of an invocation seeded with `seed`: `size` work units
/// on inputs derived from both, so the same pair gives the same execution.
RepResult run_rep(Workload w, std::uint64_t seed, std::uint64_t index,
                  int size, Profiler* prof);

}  // namespace perfbench
