#include "obs/artifact_schema.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

namespace vsgc::obs {
namespace {

using Problems = std::vector<std::string>;
using V = const JsonValue&;

/// A field's JSON type together with the range its value must lie in.
struct Kind {
  const char* name;  ///< as messages print it: "missing <name> '<key>'"
  bool (*holds)(V);
};

template <std::int64_t kLeast>
bool int_at_least(V v) {
  return v.is_int() && v.as_int() >= kLeast;
}

const Kind kVersion{"integer == 1",
                    [](V v) { return v.is_int() && v.as_int() == 1; }};
const Kind kCount{"non-negative integer", int_at_least<0>};
const Kind kPositive{"positive integer", int_at_least<1>};
const Kind kAtLeastTwo{"integer >= 2", int_at_least<2>};
const Kind kInt{"integer", [](V v) { return v.is_int(); }};
const Kind kNumber{"numeric", [](V v) { return v.is_number(); }};
const Kind kPositiveNumber{"positive number", [](V v) {
                             return v.is_number() && v.as_double() > 0;
                           }};
const Kind kString{"string", [](V v) { return v.is_string(); }};
const Kind kText{"non-empty string",
                 [](V v) { return v.is_string() && !v.as_string().empty(); }};
const Kind kSha256{"64-digit lowercase hex string", [](V v) {
                     return v.is_string() && v.as_string().size() == 64 &&
                            v.as_string().find_first_not_of(
                                "0123456789abcdef") == std::string::npos;
                   }};
const Kind kBool{"boolean", [](V v) { return v.is_bool(); }};
const Kind kTrue{"boolean true",
                 [](V v) { return v.is_bool() && v.as_bool(); }};
const Kind kObject{"object field", [](V v) { return v.is_object(); }};
const Kind kArray{"array field", [](V v) { return v.is_array(); }};
const Kind kNonEmptyArray{"non-empty array field",
                          [](V v) { return v.is_array() && v.size() > 0; }};

/// One required key of an object. An object field, or an array field whose
/// elements must be objects, lists the fields those objects carry in `of`.
struct Field {
  std::string key;
  const Kind& kind;
  const std::vector<Field>* of = nullptr;
};
using Schema = std::vector<Field>;

// --- the table ---------------------------------------------------------------

const Schema kAnyObject = {};

/// LINT_vsgc.json (lint::Linter::to_json).
const Schema kFinding = {{"file", kText}, {"rule", kText}, {"message", kText},
                         {"line", kPositive}, {"suppressed", kBool}};
const Schema kLint = {{"schema_version", kVersion}, {"root", kString},
                      {"files_scanned", kCount}, {"unsuppressed", kCount},
                      {"suppressed", kCount}, {"findings", kArray, &kFinding}};

/// LINT_deps.json (lint::deps_to_json).
const Schema kModule = {{"name", kText}, {"rank", kInt}, {"files", kPositive}};
const Schema kEdge = {{"from", kText}, {"to", kText}, {"count", kPositive}};
const Schema kSimPurity = {{"entries", kCount}, {"ledgered", kCount},
                           {"unledgered", kCount}, {"stale", kCount}};
const Schema kDeps = {
    {"schema_version", kVersion}, {"root", kString}, {"files", kCount},
    {"internal_edges", kCount}, {"external_includes", kCount},
    {"cycles", kCount}, {"layer_violations", kCount},
    {"modules", kNonEmptyArray, &kModule}, {"module_edges", kArray, &kEdge},
    {"sim_purity", kObject, &kSimPurity}};

/// BENCH_<name>.json (obs::BenchArtifact). Every result row is an object;
/// kBenches says what the rows of some benches carry.
const Schema kMetricRow = {{"name", kString}, {"labels", kObject}};
const Schema kMetrics = {{"counters", kArray, &kMetricRow},
                         {"gauges", kArray, &kMetricRow},
                         {"histograms", kArray, &kMetricRow}};
const Schema kSim = {
    {"events_executed", kCount}, {"events_cancelled", kCount},
    {"peak_queue_depth", kCount}, {"sim_time_us", kCount},
    {"wall_time_seconds", kNumber}, {"events_per_wall_second", kNumber},
    {"wall_seconds_per_sim_second", kNumber}};
const Schema kArtifact = {
    {"bench", kText}, {"schema_version", kVersion}, {"config", kObject},
    {"results", kNonEmptyArray, &kAnyObject}, {"metrics", kObject, &kMetrics},
    {"sim", kObject, &kSim}};

/// BENCH_throughput.json (E2): one row per group size.
const Schema kThroughputRow = {
    {"group_size", kAtLeastTwo}, {"payload_bytes", kPositive},
    {"msgs_per_sec", kPositiveNumber}, {"avg_latency_ms", kPositiveNumber},
    {"sender_bytes_per_msg", kPositiveNumber},
    {"overhead_bytes_per_msg", kPositiveNumber}};

/// BENCH_tracelat.json (vsgc_trace --json): "summary" and phase rows.
const Schema kTracelatSummary = {
    {"messages", kCount}, {"legs_expected", kCount},
    {"legs_delivered", kCount}, {"orphans", kCount},
    {"orphans_unexplained", kCount}, {"retransmit_packets", kCount},
    {"forward_copies", kCount}, {"view_changes", kCount},
    {"end_at_us", kCount}};
const Schema kTracelatPhase = {{"phase", kString}, {"count", kCount},
                               {"p50_us", kCount}, {"p95_us", kCount},
                               {"p99_us", kCount}, {"max_us", kCount}};

/// BENCH_scale.json (E12): "sweep", "fit" and "determinism" rows.
const Schema kScaleSweep = {
    {"n", kPositive}, {"groups", kAtLeastTwo},
    {"view_change_ms", kPositiveNumber}, {"flash_join_ms", kPositiveNumber},
    {"msgs_per_sec", kPositiveNumber}, {"bytes_per_msg", kPositiveNumber},
    {"resident_bytes_per_member", kPositiveNumber}, {"deliveries", kCount},
    {"waves", kCount}, {"checker_tolerated", kCount},
    {"sack_runs_sent", kCount}, {"sack_suppressed", kCount}};
const Schema kScaleFit = {
    {"metric", kString}, {"exponent", kNumber}, {"sublinear", kBool}};
const Schema kScaleDeterminism = {{"identical", kBool},
                                  {"trace_bytes", kPositive}};

/// BENCH_perf.json (tools/perf_trajectory.py). The workloads of a row and
/// the metrics of a run are named by BENCHMARK.json, so
/// perf_matches_benchmark lists those fields.
const Schema kDeclaredWorkload = {{"name", kString}};
const Schema kDeclaredMetric = {{"name", kString}, {"unit", kString}};
const Schema kBenchmark = {{"workloads", kArray, &kDeclaredWorkload},
                           {"end_to_end", kArray, &kDeclaredMetric}};
const Schema kPerfRow = {{"label", kText}, {"host", kText},
                         {"compiler", kText}, {"source_sha256", kSha256},
                         {"nproc", kPositive}, {"workloads", kObject}};
const Schema kPerf = {{"schema_version", kVersion},
                      {"rows", kNonEmptyArray, &kPerfRow}};
const Schema kMeasured = {{"value", kNumber}, {"unit", kString}};
const Schema kQuartiles = {
    {"unit", kString}, {"q1", kNumber}, {"median", kNumber}, {"q3", kNumber}};

// --- the walker --------------------------------------------------------------

bool holds(const Kind& kind, const JsonValue* v) {
  return v != nullptr && kind.holds(*v);
}

const JsonValue* get(const JsonValue* v, const std::string& key) {
  return v == nullptr ? nullptr : v->find(key);
}

/// `key`'s value when it is a string, else "".
std::string text(V obj, const std::string& key) {
  return holds(kString, obj.find(key)) ? obj.find(key)->as_string() : "";
}

std::string join(const std::string& at, const std::string& key) {
  return at.empty() ? key : at + "." + key;
}

/// Checks that `obj` carries every field of `schema` with its kind, and
/// descends into the objects each field's `of` describes. `at` is the path
/// of `obj` ("" for the document) and starts every message.
void walk(V obj, const Schema& schema, const std::string& at, Problems& p) {
  for (const Field& f : schema) {
    const JsonValue* v = obj.find(f.key);
    if (!holds(f.kind, v)) {
      p.push_back((at.empty() ? "" : at + " ") + "missing " + f.kind.name +
                  " '" + f.key + "'");
    } else if (f.of != nullptr && v->is_object()) {
      walk(*v, *f.of, join(at, f.key), p);
    } else if (f.of != nullptr && v->is_array()) {
      for (std::size_t i = 0; i < v->size(); ++i) {
        const std::string row = join(at, f.key) + "[" + std::to_string(i) + "]";
        if (v->at(i).is_object()) walk(v->at(i), *f.of, row, p);
        else p.push_back(row + " is not an object");
      }
    }
  }
}

// --- cross-field invariants --------------------------------------------------
//
// These run only on a document the walker passed, so every field they read
// is present with its kind.

std::string row_at(std::size_t i) {
  return "results[" + std::to_string(i) + "]";
}

/// vsgc_lint: the totals count the findings, and a suppressed finding says
/// why.
void lint_totals_match_findings(V doc, Problems& p) {
  const JsonValue& findings = *doc.find("findings");
  std::int64_t suppressed = 0;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (!findings.at(i).find("suppressed")->as_bool()) continue;
    ++suppressed;
    if (!holds(kText, findings.at(i).find("justification"))) {
      p.push_back("findings[" + std::to_string(i) +
                  "] suppressed without a non-empty 'justification'");
    }
  }
  if (doc.find("suppressed")->as_int() != suppressed) {
    p.push_back("'suppressed' disagrees with the findings array");
  }
  if (doc.find("unsuppressed")->as_int() !=
      static_cast<std::int64_t>(findings.size()) - suppressed) {
    p.push_back("'unsuppressed' + 'suppressed' != findings count");
  }
}

/// vsgc_lint --deps-json: every sim-purity entry is ledgered or unledgered.
void deps_ledger_adds_up(V doc, Problems& p) {
  const JsonValue& sim = *doc.find("sim_purity");
  // The counts are non-negative, so the subtraction cannot overflow.
  if (sim.find("entries")->as_int() - sim.find("ledgered")->as_int() !=
      sim.find("unledgered")->as_int()) {
    p.push_back("'sim_purity.entries' != ledgered + unledgered");
  }
}

/// The first metrics row named `name` in one of `sections`, or null.
const JsonValue* find_metric(V doc, const std::string& name,
                             std::initializer_list<const char*> sections = {
                                 "counters", "gauges", "histograms"}) {
  for (const char* section : sections) {
    for (const JsonValue& row : doc.find("metrics")->find(section)->items()) {
      if (text(row, "name") == name) return &row;
    }
  }
  return nullptr;
}

/// vsgc_trace: the span.* histogram each (row, phase) is derived from.
const std::map<std::pair<std::string, std::string>, std::string>
    kPhaseHistogram = {
        {{"msg_phase", "sender_queue"}, "span.msg.sender_queue_us"},
        {{"msg_phase", "wire"}, "span.msg.wire_us"},
        {{"msg_phase", "gate"}, "span.msg.gate_us"},
        {{"msg_phase", "end_to_end"}, "span.msg.e2e_us"},
        {{"view_phase", "blocking"}, "span.view.blocking_us"},
        {{"view_phase", "sync_send"}, "span.view.sync_send_us"},
        {{"view_phase", "membership_wait"}, "span.view.membership_wait_us"},
        {{"view_phase", "install_wait"}, "span.view.install_wait_us"},
        {{"view_phase", "end_to_end"}, "span.view.e2e_us"},
};

/// vsgc_trace: exactly one summary row, every span.* histogram present, and
/// each phase row names a known phase and counts exactly the samples of the
/// histogram derived from it.
void tracelat_phases_match_histograms(V doc, V results, Problems& p) {
  for (const auto& [phase, name] : kPhaseHistogram) {
    if (find_metric(doc, name, {"histograms"}) == nullptr) {
      p.push_back("tracelat artifact missing histogram '" + name + "'");
    }
  }
  std::size_t summaries = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string row = text(results.at(i), "row");
    const std::string phase = text(results.at(i), "phase");
    const auto h = kPhaseHistogram.find({row, phase});
    const JsonValue* count = results.at(i).find("count");
    if (row == "summary") {
      ++summaries;
    } else if (h == kPhaseHistogram.end()) {
      p.push_back(row_at(i) + " unknown " + row + " phase '" + phase + "'");
    } else if (const JsonValue* want = get(
                   find_metric(doc, h->second, {"histograms"}), "count");
               want != nullptr && want->dump() != count->dump()) {
      p.push_back(row_at(i) + " " + row + " '" + phase + "' count " +
                  count->dump() + " != histogram '" + h->second + "' count " +
                  want->dump());
    }
  }
  if (summaries != 1) p.push_back("tracelat needs exactly one summary row");
}

/// bench_scale: at least two sweep rows with strictly increasing n, exactly
/// one fit row per gated metric, and exactly one determinism row, which
/// must report identical same-seed traces.
void scale_sweep_fit_determinism(V, V results, Problems& p) {
  std::map<std::string, std::size_t> rows = {
      {"sweep", 0}, {"determinism", 0},
      {"fit view_change_ms", 0}, {"fit resident_bytes_per_member", 0}};
  std::int64_t last_n = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonValue& row = results.at(i);
    const std::string kase = text(row, "case");
    const auto counted =
        rows.find(kase == "fit" ? "fit " + text(row, "metric") : kase);
    if (counted == rows.end()) {
      p.push_back(row_at(i) + " unknown fit metric '" + text(row, "metric") +
                  "'");
      continue;
    }
    ++counted->second;
    if (kase == "sweep" && row.find("n")->as_int() <= last_n) {
      p.push_back(row_at(i) + " sweep rows must have strictly increasing 'n'");
    }
    if (kase == "sweep") last_n = row.find("n")->as_int();
    if (kase == "determinism" && !row.find("identical")->as_bool()) {
      p.push_back(row_at(i) +
                  " same-seed determinism check reported divergence");
    }
  }
  for (const auto& [kind, count] : rows) {
    const bool sweep = kind == "sweep";
    if (sweep ? count < 2 : count != 1) {
      p.push_back(std::string("scale needs ") +
                  (sweep ? "at least two" : "exactly one") + " '" + kind +
                  "' row");
    }
  }
}

/// What one bench's artifact carries beyond kArtifact. Each result row
/// names its variant in its `by` field (a row without that field is the
/// variant ""); `claims` are the metrics the bench's paper claim is read
/// from, which the artifact must carry in any metrics section; `invariants`,
/// if set, relates the rows to each other and to the rest of the document.
struct Bench {
  std::string by;
  std::map<std::string, const Schema*> rows;
  std::vector<std::string> claims;
  void (*invariants)(V doc, V results, Problems& p) = nullptr;
};

const std::map<std::string, Bench> kBenches = {
    // E2 rows are group-size rows only: a row with a "case" belongs to no
    // known table.
    {"throughput", {"case", {{"", &kThroughputRow}}, {"span.msg.e2e_us"}}},
    {"view_change",
     {"", {}, {"span.view.e2e_us", "gcs.view_change_latency_us"}}},
    {"blocking", {"", {}, {"gcs.blocking_window_us"}}},
    {"obsolete_views", {"", {}, {"gcs.obsolete_views"}}},
    {"tracelat",
     {"row",
      {{"summary", &kTracelatSummary},
       {"msg_phase", &kTracelatPhase},
       {"view_phase", &kTracelatPhase}},
      {},
      tracelat_phases_match_histograms}},
    {"scale",
     {"case",
      {{"sweep", &kScaleSweep},
       {"fit", &kScaleFit},
       {"determinism", &kScaleDeterminism}},
      {},
      scale_sweep_fit_determinism}},
};

/// Checks `bench`'s result rows, each against the variant it names.
void walk_rows(V results, const std::string& bench, const Bench& b,
               Problems& p) {
  for (std::size_t i = 0; i < results.size() && !b.rows.empty(); ++i) {
    const JsonValue* by = results.at(i).find(b.by);
    const auto schema = b.rows.find(text(results.at(i), b.by));
    if ((by != nullptr && !by->is_string()) || schema == b.rows.end()) {
      p.push_back(row_at(i) + " has no known " + bench + " '" + b.by +
                  "': " + (by == nullptr ? "none" : by->dump()));
    } else {
      walk(results.at(i), *schema->second, row_at(i), p);
    }
  }
}

/// perf_trajectory.py: each row measures every workload BENCHMARK.json
/// declares in at least three runs, and every end-to-end metric in the unit
/// BENCHMARK.json declares, summarised by quartiles that lie in order within
/// the range of the runs. `benchmark` has passed kBenchmark.
void perf_matches_benchmark(V doc, V benchmark, Problems& p) {
  const JsonValue& declared = *benchmark.find("end_to_end");
  Schema measured, quartiles;
  for (const JsonValue& metric : declared.items()) {
    measured.push_back({text(metric, "name"), kObject, &kMeasured});
    quartiles.push_back({text(metric, "name"), kObject, &kQuartiles});
  }
  const Schema result = {{"correct", kTrue}, {"attempted", kCount},
                         {"failed", kCount}, {"metrics", kObject, &measured}};
  const Schema run = {{"reps", kPositive}, {"result", kObject, &result}};
  const Schema workload = {{"runs", kArray, &run},
                           {"summary", kObject, &quartiles}};
  const JsonValue& rows = *doc.find("rows");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const JsonValue& decl : benchmark.find("workloads")->items()) {
      const std::string at = "rows[" + std::to_string(i) + "].workloads." +
                             text(decl, "name");
      const JsonValue* w =
          rows.at(i).find("workloads")->find(text(decl, "name"));
      const std::size_t known = p.size();
      if (holds(kObject, w)) walk(*w, workload, at, p);
      else p.push_back(at + " missing");
      if (p.size() > known) continue;
      const JsonValue& runs = *w->find("runs");
      if (runs.size() < 3) {
        p.push_back(at + " has fewer than 3 runs");
        continue;
      }
      for (const JsonValue& metric : declared.items()) {
        const std::string name = text(metric, "name");
        const JsonValue& summary = *w->find("summary")->find(name);
        bool units_match = text(summary, "unit") == text(metric, "unit");
        double lo = runs.at(0).find("result")->find("metrics")->find(name)
                        ->find("value")->as_double();
        double hi = lo;
        for (const JsonValue& r : runs.items()) {
          const JsonValue& m = *r.find("result")->find("metrics")->find(name);
          units_match = units_match && text(m, "unit") == text(metric, "unit");
          lo = std::min(lo, m.find("value")->as_double());
          hi = std::max(hi, m.find("value")->as_double());
        }
        const double chain[] = {lo, summary.find("q1")->as_double(),
                                summary.find("median")->as_double(),
                                summary.find("q3")->as_double(), hi};
        if (!units_match) {
          p.push_back(at + " reports '" + name + "' in a unit other than " +
                      "BENCHMARK.json's '" + text(metric, "unit") + "'");
        }
        if (!std::is_sorted(std::begin(chain), std::end(chain))) {
          p.push_back(at + ".summary." + name +
                      " is not min <= q1 <= median <= q3 <= max of its runs");
        }
      }
    }
  }
}

}  // namespace

bool needs_benchmark(const JsonValue& doc) {
  return text(doc, "tool") == "perfbench";
}

std::vector<std::string> validate_artifact(const JsonValue& doc,
                                           const JsonValue& benchmark) {
  if (!doc.is_object()) return {"document is not a JSON object"};
  Problems p;
  const std::string tool = text(doc, "tool");
  if (tool == "vsgc_lint") {
    walk(doc, kLint, "", p);
    if (p.empty()) lint_totals_match_findings(doc, p);
  } else if (tool == "vsgc_deps") {
    walk(doc, kDeps, "", p);
    if (p.empty()) deps_ledger_adds_up(doc, p);
  } else if (tool == "perfbench") {
    walk(benchmark, kBenchmark, "BENCHMARK.json", p);
    if (p.empty()) walk(doc, kPerf, "", p);
    if (p.empty()) perf_matches_benchmark(doc, benchmark, p);
  } else {
    walk(doc, kArtifact, "", p);
    const std::string bench = text(doc, "bench");
    const auto b = kBenches.find(bench);
    if (!p.empty() || b == kBenches.end()) return p;
    walk_rows(*doc.find("results"), bench, b->second, p);
    if (p.empty() && b->second.invariants != nullptr) {
      b->second.invariants(doc, *doc.find("results"), p);
    }
    for (const std::string& name : b->second.claims) {
      if (find_metric(doc, name) == nullptr) {
        p.push_back(bench + " artifact missing metric '" + name + "'");
      }
    }
  }
  return p;
}

}  // namespace vsgc::obs
