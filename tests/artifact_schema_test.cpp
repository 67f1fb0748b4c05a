// Artifact schema tests (obs/artifact_schema.hpp): for each kind of
// artifact, one minimal document that passes, and hand-written mutants of it
// that must fail with a message naming the broken field or invariant: a
// deleted key, a value of the wrong kind, a value out of range, and a broken
// cross-field invariant.
#include "obs/artifact_schema.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vsgc {
namespace {

using obs::JsonValue;

JsonValue parse(const std::string& text) {
  std::string error;
  JsonValue doc = JsonValue::parse(text, &error);
  EXPECT_EQ(error, "") << text;
  return doc;
}

/// Replaces `from`, which must occur exactly once in `doc`, with `to`.
std::string edit(const std::string& doc, const std::string& from,
                 const std::string& to) {
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << "'" << from << "' not in the document";
  EXPECT_EQ(doc.find(from, at + 1), std::string::npos)
      << "'" << from << "' occurs more than once";
  return at == std::string::npos
             ? doc
             : doc.substr(0, at) + to + doc.substr(at + from.size());
}

struct Mutant {
  std::string from;
  std::string to;
  std::string problem;  ///< a substring one of the messages must contain
};

void expect_valid(const std::string& doc, const std::string& benchmark = "") {
  const std::vector<std::string> problems = obs::validate_artifact(
      parse(doc), benchmark.empty() ? JsonValue() : parse(benchmark));
  EXPECT_TRUE(problems.empty()) << problems.front();
}

void expect_rejected(const std::string& doc, const std::vector<Mutant>& mutants,
                     const std::string& benchmark = "") {
  for (const Mutant& m : mutants) {
    const std::vector<std::string> problems = obs::validate_artifact(
        parse(edit(doc, m.from, m.to)),
        benchmark.empty() ? JsonValue() : parse(benchmark));
    std::string all;
    for (const std::string& p : problems) all += "\n  " + p;
    EXPECT_NE(all.find(m.problem), std::string::npos)
        << "'" << m.from << "' -> '" << m.to << "': expected '" << m.problem
        << "' among:" << all;
  }
}

// --- vsgc_lint --------------------------------------------------------------

const std::string kLint = R"({"tool": "vsgc_lint", "schema_version": 1,
  "root": ".", "files_scanned": 3, "unsuppressed": 1, "suppressed": 1,
  "findings": [
    {"file": "src/a.cpp", "line": 4, "rule": "determinism",
     "message": "std::rand", "suppressed": false},
    {"file": "src/b.cpp", "line": 9, "rule": "hygiene",
     "message": "wall clock", "suppressed": true,
     "justification": "bench timing"}]})";

TEST(ArtifactSchema, LintFindings) {
  expect_valid(kLint);
  expect_rejected(
      kLint,
      {{"\"files_scanned\": 3, ", "",
        "missing non-negative integer 'files_scanned'"},
       {"\"line\": 4,", "\"line\": \"4\",",
        "findings[0] missing positive integer 'line'"},
       {"\"line\": 9,", "\"line\": 0,",
        "findings[1] missing positive integer 'line'"},
       {"\"rule\": \"determinism\"", "\"rule\": \"\"",
        "findings[0] missing non-empty string 'rule'"},
       {"\"unsuppressed\": 1", "\"unsuppressed\": 2",
        "'unsuppressed' + 'suppressed' != findings count"},
       {"\"suppressed\": 1", "\"suppressed\": 0",
        "'suppressed' disagrees with the findings array"},
       {",\n     \"justification\": \"bench timing\"", "",
        "findings[1] suppressed without a non-empty 'justification'"}});
}

// --- vsgc_lint --deps-json --------------------------------------------------

const std::string kDeps = R"({"tool": "vsgc_deps", "schema_version": 1,
  "root": ".", "files": 4, "internal_edges": 2, "external_includes": 1,
  "cycles": 0, "layer_violations": 0,
  "modules": [{"name": "sim", "rank": 10, "files": 2},
              {"name": "gcs", "rank": 50, "files": 2}],
  "module_edges": [{"from": "gcs", "to": "sim", "count": 2}],
  "sim_purity": {"entries": 3, "ledgered": 2, "unledgered": 1,
                 "stale": 0}})";

TEST(ArtifactSchema, DepsGraph) {
  expect_valid(kDeps);
  expect_rejected(
      kDeps,
      {{"\"cycles\": 0, ", "", "missing non-negative integer 'cycles'"},
       {"\"rank\": 10", "\"rank\": \"10\"",
        "modules[0] missing integer 'rank'"},
       {"\"count\": 2", "\"count\": 0",
        "module_edges[0] missing positive integer 'count'"},
       {"\"stale\": 0", "\"stale\": -1",
        "sim_purity missing non-negative integer 'stale'"},
       {"\"modules\": [", "\"modules\": [], \"unused\": [",
        "missing non-empty array field 'modules'"},
       {"\"ledgered\": 2", "\"ledgered\": 1",
        "'sim_purity.entries' != ledgered + unledgered"}});
}

// --- BENCH_<name>.json ------------------------------------------------------

const std::string kSim = R"("sim": {"events_executed": 10,
  "events_cancelled": 0, "peak_queue_depth": 3, "sim_time_us": 1000,
  "wall_time_seconds": 0.5, "events_per_wall_second": 20.0,
  "wall_seconds_per_sim_second": 500.0})";

const std::string kViewChange = R"({"bench": "view_change",
  "schema_version": 1, "config": {"seed": 1}, "results": [{"n": 3}],
  "metrics": {"counters": [{"name": "gcs.views", "labels": {}, "value": 2}],
    "gauges": [],
    "histograms": [{"name": "span.view.e2e_us", "labels": {}, "count": 1},
      {"name": "gcs.view_change_latency_us", "labels": {"p": "1"},
       "count": 1}]},
  )" + kSim + "}";

TEST(ArtifactSchema, BenchArtifact) {
  expect_valid(kViewChange);
  expect_rejected(
      kViewChange,
      {{"\"sim\": {", "\"simulation\": {", "missing object field 'sim'"},
       {"\"events_cancelled\": 0, ", "",
        "sim missing non-negative integer 'events_cancelled'"},
       {"\"schema_version\": 1", "\"schema_version\": \"1\"",
        "missing integer == 1 'schema_version'"},
       {"\"schema_version\": 1", "\"schema_version\": 2",
        "missing integer == 1 'schema_version'"},
       {"\"peak_queue_depth\": 3", "\"peak_queue_depth\": -1",
        "sim missing non-negative integer 'peak_queue_depth'"},
       {"\"wall_time_seconds\": 0.5", "\"wall_time_seconds\": \"slow\"",
        "sim missing numeric 'wall_time_seconds'"},
       {"\"bench\": \"view_change\"", "\"bench\": \"\"",
        "missing non-empty string 'bench'"},
       {"\"results\": [{\"n\": 3}]", "\"results\": []",
        "missing non-empty array field 'results'"},
       {"\"results\": [{\"n\": 3}]", "\"results\": [3]",
        "results[0] is not an object"},
       {"\"labels\": {\"p\": \"1\"}", "\"labels\": []",
        "metrics.histograms[1] missing object field 'labels'"},
       {"\"gauges\": [],", "", "metrics missing array field 'gauges'"},
       {"\"name\": \"span.view.e2e_us\"", "\"name\": \"span.view.other\"",
        "view_change artifact missing metric 'span.view.e2e_us'"}});
}

// --- BENCH_throughput.json --------------------------------------------------

const std::string kThroughput = R"({"bench": "throughput",
  "schema_version": 1, "config": {},
  "results": [{"group_size": 4, "payload_bytes": 64, "msgs_per_sec": 1000.5,
    "avg_latency_ms": 1.5, "sender_bytes_per_msg": 90.0,
    "overhead_bytes_per_msg": 26.0}],
  "metrics": {"counters": [], "gauges": [],
    "histograms": [{"name": "span.msg.e2e_us", "labels": {}, "count": 5}]},
  )" + kSim + "}";

TEST(ArtifactSchema, ThroughputRows) {
  expect_valid(kThroughput);
  expect_rejected(
      kThroughput,
      {{"\"payload_bytes\": 64, ", "",
        "results[0] missing positive integer 'payload_bytes'"},
       {"\"avg_latency_ms\": 1.5", "\"avg_latency_ms\": \"fast\"",
        "results[0] missing positive number 'avg_latency_ms'"},
       {"\"group_size\": 4", "\"group_size\": 1",
        "results[0] missing integer >= 2 'group_size'"},
       {"\"msgs_per_sec\": 1000.5", "\"msgs_per_sec\": 0",
        "results[0] missing positive number 'msgs_per_sec'"},
       {"{\"group_size\": 4", "{\"case\": \"e2\", \"group_size\": 4",
        "results[0] has no known throughput 'case'"},
       {"\"span.msg.e2e_us\"", "\"span.msg.other\"",
        "throughput artifact missing metric 'span.msg.e2e_us'"}});
}

// --- BENCH_tracelat.json ----------------------------------------------------

std::string histogram(const std::string& name, int count) {
  return "{\"name\": \"" + name + "\", \"labels\": {}, \"count\": " +
         std::to_string(count) + "}";
}

const std::string kSummary = R"({"row": "summary", "messages": 2,
     "legs_expected": 4, "legs_delivered": 4, "orphans": 0,
     "orphans_unexplained": 0, "retransmit_packets": 0, "forward_copies": 0,
     "view_changes": 1, "end_at_us": 5000})";

const std::string kTracelat =
    R"({"bench": "tracelat", "schema_version": 1, "config": {},
  "results": [)" + kSummary + R"(,
    {"row": "msg_phase", "phase": "wire", "count": 4, "p50_us": 1000,
     "p95_us": 1100, "p99_us": 1100, "max_us": 1200},
    {"row": "view_phase", "phase": "end_to_end", "count": 1,
     "p50_us": 9000, "p95_us": 9000, "p99_us": 9000, "max_us": 9000}],
  "metrics": {"counters": [], "gauges": [], "histograms": [)" +
    histogram("span.msg.sender_queue_us", 4) + ", " +
    histogram("span.msg.wire_us", 4) + ", " +
    histogram("span.msg.gate_us", 4) + ", " +
    histogram("span.msg.e2e_us", 4) + ", " +
    histogram("span.view.blocking_us", 1) + ", " +
    histogram("span.view.sync_send_us", 1) + ", " +
    histogram("span.view.membership_wait_us", 1) + ", " +
    histogram("span.view.install_wait_us", 1) + ", " +
    histogram("span.view.e2e_us", 1) + "]},\n  " + kSim + "}";

TEST(ArtifactSchema, TracelatRows) {
  expect_valid(kTracelat);
  expect_rejected(
      kTracelat,
      {{"\"orphans\": 0,", "",
        "results[0] missing non-negative integer 'orphans'"},
       {"\"phase\": \"wire\"", "\"phase\": 3",
        "results[1] missing string 'phase'"},
       {"\"max_us\": 1200", "\"max_us\": -1",
        "results[1] missing non-negative integer 'max_us'"},
       {"\"count\": 4, \"p50_us\"", "\"count\": 3, \"p50_us\"",
        "results[1] msg_phase 'wire' count 3 != histogram "
        "'span.msg.wire_us' count 4"},
       {"\"phase\": \"wire\"", "\"phase\": \"wires\"",
        "results[1] unknown msg_phase phase 'wires'"},
       {kSummary + ",", kSummary + ", " + kSummary + ",",
        "tracelat needs exactly one summary row"},
       {"\"row\": \"summary\"", "\"row\": \"summry\"",
        "results[0] has no known tracelat 'row'"},
       {"\"span.view.blocking_us\"", "\"span.view.blocked_us\"",
        "tracelat artifact missing histogram 'span.view.blocking_us'"}});
}

// --- BENCH_scale.json -------------------------------------------------------

const std::string kScale = R"({"bench": "scale", "schema_version": 1,
  "config": {}, "results": [
    {"case": "sweep", "n": 64, "groups": 8, "view_change_ms": 12.5,
     "flash_join_ms": 40.0, "msgs_per_sec": 900.0, "bytes_per_msg": 80.0,
     "resident_bytes_per_member": 2048.0, "deliveries": 100, "waves": 2,
     "checker_tolerated": 0, "sack_runs_sent": 5, "sack_suppressed": 1},
    {"case": "sweep", "n": 256, "groups": 32, "view_change_ms": 14.0,
     "flash_join_ms": 45.0, "msgs_per_sec": 950.0, "bytes_per_msg": 81.0,
     "resident_bytes_per_member": 2100.0, "deliveries": 400, "waves": 3,
     "checker_tolerated": 0, "sack_runs_sent": 9, "sack_suppressed": 2},
    {"case": "fit", "metric": "view_change_ms", "exponent": 0.4,
     "sublinear": true},
    {"case": "fit", "metric": "resident_bytes_per_member", "exponent": 0.1,
     "sublinear": false},
    {"case": "determinism", "identical": true, "trace_bytes": 12345}],
  "metrics": {"counters": [], "gauges": [], "histograms": []},
  )" + kSim + "}";

TEST(ArtifactSchema, ScaleRows) {
  expect_valid(kScale);
  expect_rejected(
      kScale,
      {{"\"waves\": 2,", "", "results[0] missing non-negative integer 'waves'"},
       {"\"exponent\": 0.4", "\"exponent\": \"low\"",
        "results[2] missing numeric 'exponent'"},
       {"\"sublinear\": true", "\"sublinear\": 1",
        "results[2] missing boolean 'sublinear'"},
       {"\"groups\": 8", "\"groups\": 1",
        "results[0] missing integer >= 2 'groups'"},
       {"\"trace_bytes\": 12345", "\"trace_bytes\": 0",
        "results[4] missing positive integer 'trace_bytes'"},
       {"\"n\": 256", "\"n\": 64",
        "results[1] sweep rows must have strictly increasing 'n'"},
       {"\"identical\": true", "\"identical\": false",
        "results[4] same-seed determinism check reported divergence"},
       {"\"metric\": \"resident_bytes_per_member\"",
        "\"metric\": \"view_change_ms\"",
        "scale needs exactly one 'fit resident_bytes_per_member' row"},
       {"\"metric\": \"view_change_ms\"", "\"metric\": \"flash_join_ms\"",
        "results[2] unknown fit metric 'flash_join_ms'"},
       {",\n    {\"case\": \"determinism\", \"identical\": true, "
        "\"trace_bytes\": 12345}",
        "", "scale needs exactly one 'determinism' row"}});
}

// --- BENCH_perf.json --------------------------------------------------------

const std::string kBenchmark = R"({"workloads": [{"name": "steady"}],
  "end_to_end": [{"name": "ops_per_s", "unit": "1/s"}]})";

std::string run(int attempted, double value) {
  return "{\"reps\": 1, \"result\": {\"correct\": true, \"attempted\": " +
         std::to_string(attempted) +
         ", \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": " +
         std::to_string(value) + ", \"unit\": \"1/s\"}}}}";
}

const std::string kPerf =
    R"({"tool": "perfbench", "schema_version": 1, "rows": [
  {"label": "baseline", "host": "x86_64, 4 vCPU", "compiler": "GCC 12.2",
   "source_sha256": ")" +
    std::string(64, 'a') + R"(", "nproc": 4,
   "workloads": {"steady": {"runs": [)" +
    run(10, 100) + ", " + run(11, 110) + ", " + run(12, 120) + R"(],
     "summary": {"ops_per_s": {"unit": "1/s", "q1": 105.0, "median": 110.0,
                               "q3": 115.0}}}}}]})";

TEST(ArtifactSchema, PerfTrajectory) {
  EXPECT_TRUE(obs::needs_benchmark(parse(kPerf)));
  EXPECT_FALSE(obs::needs_benchmark(parse(kScale)));
  expect_valid(kPerf, kBenchmark);
  expect_rejected(
      kPerf,
      {{"\"nproc\": 4,", "", "rows[0] missing positive integer 'nproc'"},
       {"\"q1\": 105.0", "\"q1\": \"105\"",
        "rows[0].workloads.steady.summary.ops_per_s missing numeric 'q1'"},
       {std::string(64, 'a'), std::string(64, 'A'),
        "rows[0] missing 64-digit lowercase hex string 'source_sha256'"},
       {std::string(64, 'a'), std::string(63, 'a'),
        "rows[0] missing 64-digit lowercase hex string 'source_sha256'"},
       {"\"attempted\": 11, \"failed\": 0", "\"attempted\": -1, \"failed\": 0",
        "rows[0].workloads.steady.runs[1].result missing non-negative "
        "integer 'attempted'"},
       {"\"correct\": true, \"attempted\": 12",
        "\"correct\": false, \"attempted\": 12",
        "rows[0].workloads.steady.runs[2].result missing boolean true "
        "'correct'"},
       {"\"steady\": {", "\"stedy\": {", "rows[0].workloads.steady missing"},
       {"\"median\": 110.0", "\"median\": 130.0",
        "rows[0].workloads.steady.summary.ops_per_s is not min <= q1 <= "
        "median <= q3 <= max of its runs"},
       {"\"unit\": \"1/s\", \"q1\"", "\"unit\": \"s\", \"q1\"",
        "reports 'ops_per_s' in a unit other than BENCHMARK.json's '1/s'"},
       {", " + run(12, 120), "",
        "rows[0].workloads.steady has fewer than 3 runs"}},
      kBenchmark);
  // The workloads and metrics come from BENCHMARK.json, so a malformed one
  // fails every trajectory.
  const std::vector<std::string> problems = obs::validate_artifact(
      parse(kPerf), parse(R"({"workloads": [{"name": "steady"}]})"));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "BENCHMARK.json missing array field 'end_to_end'");
}

}  // namespace
}  // namespace vsgc
