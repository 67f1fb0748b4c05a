// perfbench: wall-clock benchmark of the full vsgc stack as app::World
// deploys it (see README.md for workloads, metrics and the layer map).
//
//   perfbench --workload steady|churn|stress|fanin --seed N --seconds S
//             --trace 0|1 [--reps N] [--rep-size N]
//
// --trace 0 measures end-to-end metrics: one warm-up rep, then reps until S
// seconds have passed (or exactly --reps). Throughput is the 95th percentile
// over the run's windows (see WindowMeter in workloads.cpp), the other
// metrics are medians or means over reps. Each rep runs on the next CPU of
// the process's affinity mask in turn.
// --trace 1 runs a fixed number of pairs of one plain rep and one traced rep
// on the same seed, checks that both did identical work, and reports the
// per-layer metrics of the traced reps. Every metric is printed on its own
// line with its unit; the last stdout line is one JSON object. Exit status
// is 0 only when every correctness check passed.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "profile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  Workload workload = Workload::kSteady;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int reps = 0;      ///< 0: time-bounded (trace 0) / default pairs (trace 1)
  int rep_size = 0;  ///< 0: the workload's default
};

int usage() {
  std::cerr << "usage: perfbench --workload steady|churn|stress|fanin "
               "--seed N --seconds S --trace 0|1 [--reps N] [--rep-size N]\n";
  return 2;
}

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Samples of many reps without keeping every sample, so that the
/// benchmark's own memory does not grow with the run: the pooled mean and
/// count, and the median over reps of each rep's percentiles.
struct SampleSummary {
  double sum = 0;
  std::uint64_t count = 0;
  std::vector<double> p50, p99;

  template <typename T>
  void add(const std::vector<T>& rep) {
    for (float x : rep) sum += x;
    count += rep.size();
    if (rep.empty()) return;
    p50.push_back(percentile(rep, 0.5));
    p99.push_back(percentile(rep, 0.99));
  }
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0; }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Moves the calling thread to the CPUs it may use, one after another. On a
/// shared host each core is slowed by its own neighbours, for seconds at a
/// time and independently of the other cores; moving on every rep keeps one
/// busy core from setting a whole run's figures.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // on failure, stay where we are
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Release, optimized, no sanitizer: the only build these numbers mean
/// anything in.
std::string build_problem() {
  std::string why;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    why += " build type is '" PERFBENCH_BUILD_TYPE "', not Release;";
  }
#ifndef NDEBUG
  why += " assertions enabled (NDEBUG unset);";
#endif
#ifndef __OPTIMIZE__
  why += " built without optimization;";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += " built with a sanitizer;";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  why += " built with a sanitizer;";
#endif
#endif
  return why;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  /// A metric of the result: printed and put in the JSON line.
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A figure printed for people only: a workload-specific name of a
  /// generic metric, or one too noisy on a shared host to carry a bound.
  void note(std::string name, double value, std::string unit) {
    notes_.push_back({std::move(name), value, std::move(unit)});
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    char buf[64];
    for (const auto* list : {&metrics_, &notes_}) {
      for (const Metric& m : *list) {
        std::snprintf(buf, sizeof buf, "%.6g", m.value);
        std::cout << "  " << m.name << " = " << buf << " " << m.unit << "\n";
      }
    }
    std::snprintf(buf, sizeof buf, "%.6g",
                  ratio(static_cast<double>(failed),
                        static_cast<double>(attempted)));
    std::cout << "  failed_ops_frac = " << buf << " (" << failed << " of "
              << attempted << ")\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      std::cout << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
                << "\": {\"value\": " << buf << ", \"unit\": \""
                << metrics_[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

/// Per-workload names of the generic end-to-end metrics.
struct OpNames {
  const char* ops_per_s;
  const char* step;
  const char* allocs_per_op;
  const char* sim_latency;
};

OpNames op_names(Workload w) {
  switch (w) {
    case Workload::kSteady:
      return {"deliveries_per_s", "tick_wall_ms", "allocs_per_delivery",
              "sim_delivery_ms"};
    case Workload::kChurn:
      return {"view_changes_per_s", "view_change_wall_ms",
              "allocs_per_view_change", "sim_view_change_ms"};
    case Workload::kStress:
      return {"seeds_per_s", "seed_wall_ms", "allocs_per_seed",
              "sim_fault_to_reconverge_ms"};
    case Workload::kFanin:
      return {"deliveries_per_s", "tick_wall_ms", "allocs_per_delivery",
              "sim_delivery_ms"};
  }
  return {"", "", "", ""};
}

void tally(const RepResult& r, std::uint64_t& attempted, std::uint64_t& failed,
           bool& correct) {
  attempted += r.attempted;
  failed += r.failed;
  if (r.failed > 0) {
    correct = false;
    std::cerr << "FAIL: " << r.failure << "\n";
  }
}

int run_end_to_end(const Args& a, int size) {
  const OpNames names = op_names(a.workload);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<double> setup, ops_per_s, windows, allocs_per_op;
  SampleSummary steps;
  SampleSummary latency;
  CpuRotation cpus;

  const auto start = Clock::now();
  cpus.next();
  const RepResult warm = run_rep(a.workload, a.seed, 0, size, nullptr);
  tally(warm, attempted, failed, correct);
  setup.insert(setup.end(), warm.setup_s.begin(), warm.setup_s.end());
  int reps = 0;
  while (a.reps > 0 ? reps < a.reps
                    : reps < 3 || std::chrono::duration<double>(
                                      Clock::now() - start)
                                          .count() < a.seconds) {
    ++reps;
    cpus.next();
    const RepResult r = run_rep(a.workload, a.seed,
                                static_cast<std::uint64_t>(reps), size, nullptr);
    tally(r, attempted, failed, correct);
    const auto ops = static_cast<double>(r.counters.ops);
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    ops_per_s.push_back(ratio(ops, r.run_s));
    windows.insert(windows.end(), r.window_ops_per_s.begin(),
                   r.window_ops_per_s.end());
    allocs_per_op.push_back(ratio(static_cast<double>(r.allocs), ops));
    steps.add(r.step_ms);
    latency.add(r.sim_latency_ms);
  }
  std::cout << "measured: " << reps << " reps of " << size << " after 1 warm-up, "
            << steps.count << " steps, " << windows.size() << " windows, "
            << setup.size() << " set-ups\n";

  // A high percentile, not the median: neighbours on a shared host slow a
  // core down for stretches of seconds, and the least disturbed windows look
  // past them.
  const double window_ops_per_s = percentile(windows, 0.95);
  Report rep;
  rep.add("setup_s", median(setup), "s");
  rep.add("ops_per_s", window_ops_per_s, "1/s");
  rep.add("allocs_per_op", median(allocs_per_op), "count");
  rep.add("sim_latency_ms_mean", latency.mean(), "ms");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.note(names.ops_per_s, window_ops_per_s, "1/s");
  rep.note(std::string(names.ops_per_s) + "_median_rep", median(ops_per_s),
           "1/s");
  rep.note(std::string(names.step) + "_p50", median(steps.p50), "ms");
  rep.note(std::string(names.step) + "_p99", median(steps.p99), "ms");
  rep.note(names.allocs_per_op, median(allocs_per_op), "count");
  rep.note(std::string(names.sim_latency) + "_p50", median(latency.p50), "ms");
  rep.note(std::string(names.sim_latency) + "_p99", median(latency.p99), "ms");
  rep.print(correct, attempted, failed);
  return correct ? 0 : 1;
}

/// Traced and plain reps on one seed must have done identical work. The
/// latency sum is in the list because it depends on every jitter draw, which
/// the counts alone do not.
bool same_work(const RepResult& plain, const RepResult& traced,
               std::string* why) {
  const auto latency_sum = [](const RepResult& r) {
    double sum = 0;
    for (float x : r.sim_latency_ms) sum += x;
    return sum;
  };
  const Counters& p = plain.counters;
  const Counters& t = traced.counters;
  const std::pair<const char*, std::pair<double, double>> checks[] = {
      {"sim.events", {p.sim_events, t.sim_events}},
      {"deliveries", {p.deliveries, t.deliveries}},
      {"net.packets", {p.net_packets, t.net_packets}},
      {"net.bytes", {p.net_bytes, t.net_bytes}},
      {"ops", {p.ops, t.ops}},
      {"sim latency sum", {latency_sum(plain), latency_sum(traced)}}};
  for (const auto& [name, v] : checks) {
    if (v.first != v.second) {
      *why = std::string(name) + " differs: plain " + std::to_string(v.first) +
             ", traced " + std::to_string(v.second);
      return false;
    }
  }
  return true;
}

int default_pairs(Workload w) {
  switch (w) {
    case Workload::kSteady: return 16;
    case Workload::kChurn: return 24;
    case Workload::kStress: return 48;
    case Workload::kFanin: return 16;
  }
  return 1;
}

int run_traced(const Args& a, int size) {
  const int pairs = a.reps > 0 ? a.reps : default_pairs(a.workload);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Counters c;
  LayerTotals lt;
  double plain_s = 0;
  double traced_s = 0;
  SampleSummary latency;
  CpuRotation cpus;

  cpus.next();
  const RepResult warm = run_rep(a.workload, a.seed, 0, size, nullptr);
  tally(warm, attempted, failed, correct);
  for (int i = 1; i <= pairs; ++i) {
    const auto index = static_cast<std::uint64_t>(i);
    cpus.next();  // both reps of a pair on one CPU
    const RepResult plain = run_rep(a.workload, a.seed, index, size, nullptr);
    Profiler prof;
    const RepResult traced = run_rep(a.workload, a.seed, index, size, &prof);
    tally(plain, attempted, failed, correct);
    tally(traced, attempted, failed, correct);
    std::string why;
    if (!same_work(plain, traced, &why)) {
      correct = false;
      std::cerr << "FAIL: traced rep " << i << " did other work: " << why << "\n";
    }
    plain_s += plain.run_s;
    traced_s += traced.run_s;
    c += traced.counters;
    lt += prof.totals();
    latency.add(plain.sim_latency_ms);
  }
  for (std::size_t l = 0; l < kLayers; ++l) {
    if (lt.root_ns[l] != lt.under_root_ns[l]) {
      correct = false;
      std::cerr << "FAIL: span self times do not add up to their root\n";
    }
  }
  std::cout << "traced: " << pairs << " pairs of " << size << " (plain + traced)\n";

  const auto s = [&](Layer l) {
    return static_cast<double>(lt.self_ns[index(l)]) * 1e-9;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ops = d(c.ops);
  const double sim_run_s = static_cast<double>(lt.root_ns[index(Layer::kSimRun)]) * 1e-9;
  std::uint64_t spec_allocs = 0;
  for (Layer l : {Layer::kSpecMbrshp, Layer::kSpecWvRfifo, Layer::kSpecVsRfifo,
                  Layer::kSpecTransSet, Layer::kSpecSelf, Layer::kSpecClient,
                  Layer::kSpecFinalize, Layer::kSpecLiveness}) {
    spec_allocs += lt.allocs[index(l)];
  }

  Report rep;
  rep.add("sim.run_s", sim_run_s, "s");
  rep.add("sim.self_s", s(Layer::kSimRun), "s");
  rep.add("sim.events_per_op", ratio(d(c.sim_events), ops), "count");
  rep.add("sim.events_per_s", ratio(d(c.sim_events), sim_run_s), "1/s");
  rep.add("net.packets_per_op", ratio(d(c.net_packets), ops), "count");
  rep.add("net.bytes_per_op", ratio(d(c.net_bytes), ops), "B");
  rep.add("net.drop_frac", ratio(d(c.net_dropped), d(c.net_packets)), "frac");
  rep.add("transport.frames_per_op", ratio(d(c.frames), ops), "count");
  rep.add("transport.entries_per_frame",
          ratio(d(c.entries), d(c.frames - c.standalone_acks)), "count");
  rep.add("transport.standalone_acks_per_op", ratio(d(c.standalone_acks), ops),
          "count");
  rep.add("transport.retransmit_frac",
          ratio(d(c.retransmissions), d(c.entries)), "frac");
  rep.add("transport.sack_suppressed", d(c.sack_suppressed), "count");
  rep.add("transport.window_stalls", d(c.window_stalls), "count");
  rep.add("transport.peak_unacked", d(c.peak_unacked), "count");
  rep.add("transport.peak_out_of_order", d(c.peak_out_of_order), "count");
  rep.add("gcs.pump_s", s(Layer::kGcsPump), "s");
  rep.add("gcs.pump_calls", d(lt.calls[index(Layer::kGcsPump)]), "count");
  rep.add("gcs.pump_allocs", d(lt.allocs[index(Layer::kGcsPump)]), "count");
  rep.add("gcs.recv_s", s(Layer::kGcsRecv), "s");
  rep.add("gcs.send_s", s(Layer::kGcsSend), "s");
  rep.add("gcs.sync_msgs_per_view_change",
          ratio(d(c.sync_msgs), d(c.view_changes)), "count");
  rep.add("gcs.forwards_per_view_change",
          ratio(d(c.forwards), d(c.view_changes)), "count");
  rep.add("membership.client_s", s(Layer::kMbrClient), "s");
  rep.add("membership.full_views_sent", d(c.full_views), "count");
  rep.add("membership.delta_views_sent", d(c.delta_views), "count");
  rep.add("membership.delta_frac",
          ratio(d(c.delta_views), d(c.full_views + c.delta_views)), "frac");
  rep.add("spec.mbrshp_s", s(Layer::kSpecMbrshp), "s");
  rep.add("spec.wv_rfifo_s", s(Layer::kSpecWvRfifo), "s");
  rep.add("spec.vs_rfifo_s", s(Layer::kSpecVsRfifo), "s");
  rep.add("spec.trans_set_s", s(Layer::kSpecTransSet), "s");
  rep.add("spec.self_s", s(Layer::kSpecSelf), "s");
  rep.add("spec.client_s", s(Layer::kSpecClient), "s");
  rep.add("spec.finalize_s", s(Layer::kSpecFinalize), "s");
  rep.add("spec.liveness_s", s(Layer::kSpecLiveness), "s");
  rep.add("spec.events_per_op",
          ratio(d(lt.calls[index(Layer::kSpecMbrshp)]), ops), "count");
  rep.add("spec.allocs", d(spec_allocs), "count");
  rep.add("app.deliver_s", s(Layer::kAppDeliver), "s");
  rep.add("app.sim_latency_ms_p50", median(latency.p50), "ms");
  rep.add("app.sim_latency_ms_p99", median(latency.p99), "ms");
  rep.add("trace_overhead_frac", ratio(traced_s, plain_s) - 1, "frac");
  rep.print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      if (!parse_workload(v, &a.workload)) return usage();
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--reps") {
      a.reps = std::atoi(v.c_str());
    } else if (arg == "--rep-size") {
      a.rep_size = std::atoi(v.c_str());
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  const std::string problem = build_problem();
  std::cout << "env: workload=" << workload_name(a.workload)
            << " seed=" << a.seed << " trace=" << (a.trace ? 1 : 0)
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << "\n";
  if (!problem.empty()) {
    std::cerr << "perfbench: refusing to measure:" << problem << "\n";
    return 2;
  }
  const int size = a.rep_size > 0 ? a.rep_size : default_rep_size(a.workload);
  return a.trace ? run_traced(a, size) : run_end_to_end(a, size);
}
