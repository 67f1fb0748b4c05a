// The schema of every machine-readable artifact the repo writes, declared
// once, as a table of fields, in artifact_schema.cpp: BENCH_<name>.json run
// artifacts (obs::BenchArtifact) and the rows of the benches that declare
// them, vsgc_lint's LINT_vsgc.json ("tool": "vsgc_lint") and LINT_deps.json
// ("tool": "vsgc_deps"), and the committed perf trajectory BENCH_perf.json
// ("tool": "perfbench"), whose workloads and metrics come from
// BENCHMARK.json. One walker checks a document against the table; only the
// checks that relate two or more fields are code. tools/validate_bench_json
// runs it over files.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace vsgc::obs {

/// True for a perf trajectory, which validate_artifact checks against the
/// BENCHMARK.json beside it.
bool needs_benchmark(const JsonValue& doc);

/// Every way `doc` breaks its schema, one message each (`<where> missing
/// <kind> '<key>'` for an absent or ill-kinded field); empty when `doc` is
/// valid. `benchmark` is read only when needs_benchmark(doc).
std::vector<std::string> validate_artifact(const JsonValue& doc,
                                           const JsonValue& benchmark = {});

}  // namespace vsgc::obs
