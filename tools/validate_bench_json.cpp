// Schema checker for machine-readable CI artifacts (used by ci.sh).
//
// Usage: validate_bench_json FILE [FILE...]
// Checks each file against its schema in src/obs/artifact_schema.hpp:
// BENCH_*.json run artifacts, vsgc_lint's LINT_vsgc.json and LINT_deps.json,
// and the committed perf trajectory BENCH_perf.json, which is checked
// against the BENCHMARK.json in the same directory. Prints one line per
// file. Exits 0 iff every file parses and matches, 1 otherwise, 2 on a usage
// error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/artifact_schema.hpp"
#include "obs/json.hpp"

namespace {

using vsgc::obs::JsonValue;

/// Parses the JSON file at `path`; on failure returns null and sets `error`.
JsonValue read_json(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open";
    return JsonValue();
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue root = JsonValue::parse(buf.str(), error);
  if (root.is_null() && !error->empty()) *error = "JSON parse error: " + *error;
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: validate_bench_json FILE [FILE...]\n";
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const JsonValue root = read_json(argv[i], &error);
    if (!error.empty()) {
      std::cerr << argv[i] << ": " << error << "\n";
      all_ok = false;
      continue;
    }
    // A perf trajectory is checked against the BENCHMARK.json beside it.
    const std::string path = argv[i];
    const std::string benchmark_path =
        path.substr(0, path.find_last_of('/') + 1) + "BENCHMARK.json";
    JsonValue benchmark;
    if (vsgc::obs::needs_benchmark(root)) {
      benchmark = read_json(benchmark_path, &error);
    }
    const std::vector<std::string> problems =
        error.empty() ? vsgc::obs::validate_artifact(root, benchmark)
                      : std::vector<std::string>{benchmark_path + ": " + error};
    if (!problems.empty()) {
      all_ok = false;
      std::cerr << path << ": INVALID\n";
      for (const std::string& p : problems) std::cerr << "  - " << p << "\n";
      continue;
    }
    // Name what an accepted document holds.
    for (const auto& [key, what] : {std::pair{"results", "results"},
                                    std::pair{"rows", "trajectory rows"},
                                    std::pair{"findings", "lint findings"},
                                    std::pair{"modules", "modules"}}) {
      if (root.find(key) != nullptr) {
        std::cout << path << ": OK (" << root.find(key)->size() << " " << what
                  << ")\n";
        break;
      }
    }
  }
  return all_ok ? 0 : 1;
}
