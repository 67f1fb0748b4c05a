// BenchArtifact: the shared machine-readable run artifact every bench binary
// writes next to its human-readable table (the BENCH_<name>.json perf
// trajectory required by ROADMAP.md): bench, schema_version, config (the
// bench's parameters), results (one object per measured case), metrics (an
// obs::Registry dump) and sim (simulator stats aggregated over every world
// the bench ran; its wall-clock fields are host-dependent and excluded from
// determinism comparisons). The schema is declared field by field in
// obs/artifact_schema.cpp, which tools/validate_bench_json checks against.
// Output path: $VSGC_BENCH_OUT/BENCH_<name>.json (or ./BENCH_<name>.json).
#pragma once

#include <chrono>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace vsgc::obs {

class BenchArtifact {
 public:
  explicit BenchArtifact(std::string name);

  /// Echo a bench parameter into the "config" section.
  JsonValue& config(const std::string& key) { return root_["config"][key]; }

  /// Append one measured case; fill the returned object with its fields.
  JsonValue& add_result() { return root_["results"].push_back(JsonValue::object()); }

  /// Fold one finished world's simulator stats into the "sim" section.
  void tally(const sim::Simulator& sim);

  /// Same, from pre-aggregated kernel stats — for drivers (e.g. the model
  /// checker) whose worlds are already destroyed when the artifact is built.
  void tally(const sim::Simulator::Stats& stats, sim::Time sim_time);

  /// Install a registry dump as the "metrics" section (replaces any prior).
  void set_metrics(const Registry& registry) {
    root_["metrics"] = registry.to_json();
  }

  const JsonValue& root() const { return root_; }

  /// Finalize wall-clock stats and write BENCH_<name>.json. Returns the path
  /// written, or an empty string on I/O failure. A non-empty `dir` overrides
  /// the $VSGC_BENCH_OUT destination (CLI tools with a --json flag).
  std::string write_file(const std::string& dir = {});

  /// Directory artifacts go to: $VSGC_BENCH_OUT or ".".
  static std::string output_dir();

 private:
  std::string name_;
  JsonValue root_;
  std::chrono::steady_clock::time_point started_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  std::int64_t sim_time_us_ = 0;
};

}  // namespace vsgc::obs
